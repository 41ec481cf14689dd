#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/obs/registry.h"

namespace hfl {
namespace {

// Set while a pool worker executes tasks; lets parallel_for detect re-entrant
// use from inside one of its own tasks.
thread_local const ThreadPool* tl_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  cv_.notify_one();
  if (obs::enabled()) {
    static obs::Histogram& queue_depth = obs::Registry::global().histogram(
        "pool.queue_depth", "", {1, 2, 4, 8, 16, 32, 64, 128});
    queue_depth.observe(static_cast<double>(depth));
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tl_worker_pool = this;
  // Fetched once per worker; the registry keeps handles stable across
  // reset(), so the reference stays valid for the pool's lifetime.
  obs::Counter& busy_ns = obs::Registry::global().counter(
      "pool.busy_ns", "worker=" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (obs::enabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      task();
      busy_ns.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    } else {
      task();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Re-entrant call from one of this pool's own workers: run inline. Queuing
  // and blocking here would deadlock once every worker waits on sub-tasks
  // that only the waiting workers could drain.
  if (tl_worker_pool == this) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t num_blocks = std::min(n, workers_.size());
  if (num_blocks <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Lives on this frame: the waiter below may return (and destroy it) as soon
  // as it observes remaining == 0, so a task touches nothing in it after
  // releasing done_mutex. Decrement and notify both happen under the lock.
  struct Shared {
    std::size_t remaining = 0;  // guarded by done_mutex
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mutex;
  };
  Shared shared;
  shared.remaining = num_blocks;

  const std::size_t block = (n + num_blocks - 1) / num_blocks;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(n, lo + block);
    submit([&shared, &fn, lo, hi] {
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.error_mutex);
        if (!shared.error) shared.error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(shared.done_mutex);
      if (--shared.remaining == 0) shared.done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(shared.done_mutex);
  shared.done_cv.wait(lock, [&shared] { return shared.remaining == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
}

}  // namespace hfl

// Tests for common/thread_pool.
#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hfl {
namespace {

TEST(ThreadPoolTest, RunsAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, SingleIterationRunsInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, MoreWorkThanThreads) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(10000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64);
  }
}

// Overwrites the stack region a just-returned parallel_for frame occupied,
// so a task still touching that frame's state sees garbage, not a
// conveniently re-constructed copy from the next call.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[512];
  for (auto& b : junk) b = 0xA5;
}

TEST(ThreadPoolTest, BackToBackTinyCallsNeverOutliveTheirFrame) {
  // parallel_for keeps its completion state on the caller's stack. Tiny
  // tasks make the last finisher race the waiter's return; a task that
  // touched that state after the waiter left would lock a destroyed mutex
  // (glibc `__owner == 0` abort, EINVAL, or a hang).
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int call = 0; call < 20000; ++call) {
    pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
    scribble_stack();
  }
  EXPECT_EQ(total.load(), 80000L);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A parallel_for issued from inside one of the pool's own tasks must not
  // enqueue onto the shared queue (the workers could all be blocked waiting
  // on each other's nested calls — deadlock). It runs inline on the calling
  // worker instead; this test deadlocks on regression, so keep iteration
  // counts larger than the thread count to force the contended case.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(4, [](std::size_t i) {
                                     if (i == 2) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, NestedCallIntoDifferentPoolStillParallel) {
  // Inline execution only applies to re-entry into the *same* pool; a task
  // may freely fan out onto a different pool.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.parallel_for(4, [&](std::size_t) {
    inner.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, StaticPartitioningIsDisjoint) {
  // With block partitioning each index is visited by exactly one thread, so
  // per-index writes need no synchronization.
  ThreadPool pool(8);
  std::vector<int> data(5000, 0);
  pool.parallel_for(5000, [&](std::size_t i) { data[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace hfl

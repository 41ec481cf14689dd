// Timing probes at the simulator's public interfaces.
//
// The benchmark times layers from outside the program: each probe is a
// forwarding decorator around one public interface, so the simulator runs
// exactly the code it runs without the probe (the self-test in selftest.cpp
// checks that wrapped and unwrapped runs give identical digests).
//
//   * AlgorithmProbe wraps an fl::Algorithm (the `algs` layer). Traced, it
//     counts and times every hook; untraced, it only counts local steps and
//     stamps the entry of every cloud_sync, which delimits the rounds.
//   * CohortProbe wraps an fl::CohortProvider (pop::CohortStore, the `pop`
//     layer): cohort sampling and cohort turnover.
//   * OracleProbe wraps an fl::AvailabilityOracle (sim::SparseFaultPlan,
//     the `sim` layer): availability queries.
//
// local_step and edge_sync run concurrently on the engine's pool, so their
// counters live in per-thread slots: a hook touches only its own thread's
// slot and the hot path has no shared atomics. Slots are merged after the
// run.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/fl/algorithm.h"
#include "src/fl/engine.h"

namespace hfl::bench {

// Nanoseconds on the steady clock.
std::uint64_t now_ns();

struct HookStats {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
};

// Per-thread slots of T, created the first time a thread asks for one.
template <typename T>
class PerThread {
 public:
  PerThread() : id_(next_id()) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  T& local() {
    thread_local std::uint64_t cached_owner = 0;
    thread_local T* cached_slot = nullptr;
    if (cached_owner != id_) {
      const std::lock_guard<std::mutex> lock(mutex_);
      std::unique_ptr<T>& slot = slots_[std::this_thread::get_id()];
      if (slot == nullptr) slot = std::make_unique<T>();
      cached_slot = slot.get();
      cached_owner = id_;
    }
    return *cached_slot;
  }

  // Call only while no thread records.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : slots_) fn(*entry.second);
  }

 private:
  static std::uint64_t next_id() {
    static std::mutex m;
    static std::uint64_t counter = 0;
    const std::lock_guard<std::mutex> lock(m);
    return ++counter;
  }

  const std::uint64_t id_;  // never reused, so a stale thread cache misses
  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<T>> slots_;
};

class AlgorithmProbe final : public fl::Algorithm {
 public:
  struct Totals {
    HookStats init_worker, local_step, edge_sync, cloud_sync, absent_sync,
        stale_sync;
    // Σ over iterations of (last local_step exit − first local_step entry)
    // across all threads: the wall time of the local-step dispatch.
    std::uint64_t local_step_wall_ns = 0;
  };

  AlgorithmProbe(fl::Algorithm& inner, bool traced);

  std::string name() const override { return inner_.name(); }
  bool three_tier() const override { return inner_.three_tier(); }
  void init(fl::Context& ctx) override { inner_.init(ctx); }
  void init_worker(fl::Context& ctx, fl::WorkerState& w) override;
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  bool local_gradient_prefetchable() const override {
    return inner_.local_gradient_prefetchable();
  }
  const Vec& local_gradient_point(const fl::WorkerState& w) const override {
    return inner_.local_gradient_point(w);
  }
  void edge_sync(fl::Context& ctx, fl::EdgeState& e, std::size_t k) override;
  bool edge_sync_reentrant() const override {
    return inner_.edge_sync_reentrant();
  }
  bool probes_population() const override {
    return inner_.probes_population();
  }
  void cloud_sync(fl::Context& ctx, std::size_t p) override;
  void absent_sync(fl::Context& ctx, fl::WorkerState& w,
                   std::size_t k) override;
  void stale_sync(fl::Context& ctx, fl::WorkerState& w,
                  std::size_t tau) override;

  // Steady-clock entry time of every cloud_sync call, in call order.
  const std::vector<std::uint64_t>& cloud_entries_ns() const {
    return cloud_entries_;
  }
  Totals totals() const;

 private:
  struct Window {
    std::size_t t = 0;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
  };
  struct Slot {
    HookStats init_worker, local_step, edge_sync, absent_sync, stale_sync;
    std::vector<Window> windows;  // one per iteration seen on this thread
  };

  fl::Algorithm& inner_;
  const bool traced_;
  PerThread<Slot> slots_;
  HookStats cloud_;  // cloud_sync is never concurrent with itself
  std::vector<std::uint64_t> cloud_entries_;
};

class CohortProbe final : public fl::CohortProvider {
 public:
  CohortProbe(fl::CohortProvider& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  std::size_t population() const override { return inner_.population(); }
  bool sampling() const override { return inner_.sampling(); }
  std::vector<Scalar> base_weights() const override {
    return inner_.base_weights();
  }
  void begin_run(const Vec& x0) override { inner_.begin_run(x0); }
  void sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                     std::vector<Scalar>& multiplicity) override;
  std::vector<fl::WorkerId> set_cohort(
      const std::vector<fl::WorkerId>& ids) override;
  fl::WorkerSet& workers() override { return inner_.workers(); }
  void attach_pool(ThreadPool* pool) override { inner_.attach_pool(pool); }
  void begin_interval(std::size_t k) override { inner_.begin_interval(k); }
  void set_absent_replay(fl::AbsentPolicy policy, Scalar decay) override {
    inner_.set_absent_replay(policy, decay);
  }

  HookStats sample() const { return sample_; }
  HookStats turnover() const { return turnover_; }

 private:
  fl::CohortProvider& inner_;
  const bool traced_;
  HookStats sample_, turnover_;  // the engine drives providers serially
};

class OracleProbe final : public fl::AvailabilityOracle {
 public:
  OracleProbe(const fl::AvailabilityOracle& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  bool worker_available(std::size_t k, std::size_t worker) const override;
  bool edge_available(std::size_t k, std::size_t edge) const override;
  fl::AbsentPolicy absent_policy() const override {
    return inner_.absent_policy();
  }
  Scalar absent_decay() const override { return inner_.absent_decay(); }

  HookStats queries() const { return queries_; }

 private:
  const fl::AvailabilityOracle& inner_;
  const bool traced_;
  mutable HookStats queries_;  // oracle queries are serial by contract
};

}  // namespace hfl::bench

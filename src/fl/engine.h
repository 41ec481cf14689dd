// Simulation engine: drives an Algorithm over the three-tier topology.
//
// The engine owns the simulation clock. Per iteration it runs every worker's
// local_step on the thread pool (workers are data-parallel: each owns its
// model instance, RNG and batch stream, so the run is bit-reproducible for a
// given seed regardless of scheduling), then fires edge synchronizations at
// t = kτ (three-tier algorithms only) and cloud synchronizations at t = pτπ.
//
// The edge barrier is parallel too: distinct edges touch disjoint worker
// sets, so edge_sync calls dispatch concurrently on the same pool
// (serialized in edge-index order for algorithms whose
// edge_sync_reentrant() is false). Telemetry is recorded in a serial
// pre-pass and cloud/eval reductions use the element-partitioned
// deterministic path of src/fl/state.h, so curves, final parameters and obs
// counters are bit-identical to a num_threads == 1 run — asserted for every
// registry algorithm by tests/parallel_sync_test.cpp.
//
// `run` rebuilds all state from the seed, so calling it repeatedly — with the
// same or different algorithms — always starts from the identical initial
// model and identical batch streams. That is exactly the experimental setup
// of the paper's Table II (all algorithms from one initialization).
//
// Partial participation: `run(alg, schedule)` replays a deterministic
// availability trace (src/fl/availability.h, generated by
// sim::FaultPlan) through the same AvailabilityOracle interface that
// `run_with_oracle` takes. Absent workers skip their local steps, surviving
// workers aggregate with renormalized weights, and workers that miss a
// synchronization get the oracle's absent-momentum policy via
// Algorithm::absent_sync. A null or no-op schedule takes the exact
// fault-free code path, so results are bit-identical to a plain `run(alg)`.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "src/common/thread_pool.h"
#include "src/data/partitioner.h"
#include "src/fl/algorithm.h"
#include "src/fl/metrics.h"
#include "src/nn/cohort.h"

namespace hfl::evt {
class AsyncEngine;
}

namespace hfl::fl {

// Virtualized worker populations (implemented by pop::CohortStore,
// src/pop/cohort_store.h). The dense engine owns every worker's state for
// the whole run; with a provider attached it owns only the shared tiers and
// delegates worker-state lifetime to the provider, which materializes just
// each interval's sampled cohort and spills/restores revisited workers
// bit-identically. The engine drives the provider strictly serially.
class CohortProvider {
 public:
  virtual ~CohortProvider() = default;

  virtual std::size_t population() const = 0;
  // True when the provider draws strict sub-population cohorts (the engine
  // then requires evaluation points to be cloud-aligned — a mid-interval
  // virtual-global-model eval would need every worker materialized).
  virtual bool sampling() const = 0;
  // Per-worker data masses D_i for Participation renormalization;
  // bit-identical to reading num_samples off dense states.
  virtual std::vector<Scalar> base_weights() const = 0;

  // Reset per-run state; `x0` is the run's shared initial point.
  virtual void begin_run(const Vec& x0) = 0;
  // Draw interval k's cohort (k is 1-based; deterministic in the run seed
  // and k alone). Fills ascending unique ids plus one multiplicity per id
  // (> 1 only for with-replacement draws; the engine scales aggregation
  // mass by it).
  virtual void sample_cohort(std::size_t k, std::vector<WorkerId>& ids,
                             std::vector<Scalar>& multiplicity) = 0;
  // Materialize exactly `ids` (ascending): spill departures, restore
  // returnees, create first-timers. Returns the first-timers, ascending —
  // the engine runs Algorithm::init_worker on them.
  virtual std::vector<WorkerId> set_cohort(
      const std::vector<WorkerId>& ids) = 0;
  // Id-addressed view over the currently materialized states; pointers
  // stay valid across set_cohort calls (the view tracks the provider's
  // containers).
  virtual WorkerSet& workers() = 0;

  // Optional hooks (safe no-op defaults) -----------------------------------
  // Host thread pool for cohort-turnover parallelism (spill serialization /
  // restore deserialization). The engine attaches its own pool at
  // set_cohort_provider; providers must stay bit-identical at any thread
  // count (the work is per-worker and carries no cross-worker reductions).
  virtual void attach_pool(ThreadPool* /*pool*/) {}
  // Interval clock: announced before the set_cohort call of interval k
  // (1-based). Providers stamp spilled workers with it so a restore knows
  // how many synchronizations the worker missed while unmaterialized.
  virtual void begin_interval(std::size_t /*k*/) {}
  // Absent-momentum policy for unmaterialized workers: a spilled worker is
  // absent for every interval it sits in the slab, and the provider must
  // replay `policy` once per missed interval at restore — bit-identical to
  // a materialized worker receiving absent_sync each interval. The default
  // rejects everything but kHold (holding spilled state IS kHold), so a
  // provider without replay support cannot silently drop kReset/kDecay.
  virtual void set_absent_replay(AbsentPolicy policy, Scalar /*decay*/) {
    HFL_CHECK(policy == AbsentPolicy::kHold,
              "this cohort provider supports only the kHold absent policy "
              "(no spill-time policy replay)");
  }
};

// Everything one run owns: tier states, participation view, the in-flight
// result, and the logical comm payload sizes. Bundled so the per-step pieces
// of Engine::run share it, and so `evt::AsyncEngine`'s event-driven policies
// can build, evaluate and finalize their runs on the same state. `ctx`
// holds pointers into the other members: do not move a RunState after
// prepare_run.
struct RunState {
  // Dense runs own every worker's state here; virtualized runs leave it
  // empty (the cohort store owns the materialized pool) — either way
  // `workers` is the id-addressed view the rest of the engine reads.
  std::vector<WorkerState> worker_pool;
  WorkerSet workers;
  std::vector<EdgeState> edges;
  CloudState cloud;
  std::unique_ptr<Participation> part;
  Context ctx;
  RunResult result;
  // Logical bytes per synchronization message (obs/comm.h accounting).
  std::uint64_t worker_up_bytes = 0;
  std::uint64_t worker_down_bytes = 0;
  std::uint64_t edge_up_bytes = 0;
  std::uint64_t edge_down_bytes = 0;
  Vec avg_scratch;
  std::chrono::steady_clock::time_point start;
  // The interval's cohort (ascending ids: the whole population unless a
  // provider samples) with its multiplicities, and the roster handed to
  // Participation::set_cohort_roster (cohort_up aligned with cohort_ids).
  std::vector<WorkerId> cohort_ids;
  std::vector<Scalar> cohort_mult;
  std::vector<std::uint8_t> cohort_up;
  std::vector<std::uint8_t> edge_up;
  // Per-run participation accounting: miss counts are derived at finalize
  // as (intervals seen) − (intervals participated), so no per-interval
  // O(population) sweep is needed.
  std::vector<std::uint32_t> participation_counts;
  std::size_t num_part_intervals = 0;
};

class Engine {
 public:
  // `data` and the partition must outlive the engine. partition[i] holds the
  // training-sample indices of worker i; its size must equal
  // topo.num_workers().
  Engine(nn::ModelFactory factory, const data::TrainTest& data,
         data::Partition partition, Topology topo, RunConfig cfg);

  RunResult run(Algorithm& alg) { return run(alg, nullptr); }

  // Fault-aware run. `schedule` may be null (full participation) and must
  // outlive the call; it is validated against the topology and config, then
  // queried through a ScheduleOracle.
  RunResult run(Algorithm& alg, const ParticipationSchedule* schedule);

  // Virtualized worker populations: attach a provider (pop::CohortStore)
  // and every subsequent run materializes only each interval's cohort
  // instead of the whole fleet. Pass nullptr to detach. The provider must
  // outlive the engine and describe the engine's own topology/partition.
  void set_cohort_provider(CohortProvider* provider);

  // Virtualized fault-aware run: availability comes from a lazily-evaluated
  // oracle (sim::SparseFaultPlan) instead of a dense schedule, so fault
  // state is only ever computed for sampled workers. `oracle` may be null
  // (full availability) and must outlive the call. Requires an attached
  // provider.
  RunResult run_with_oracle(Algorithm& alg, const AvailabilityOracle* oracle);

  const Topology& topology() const { return topo_; }
  const RunConfig& config() const { return cfg_; }
  const data::Partition& partition() const { return partition_; }

  // Evaluate arbitrary parameters on the test set (parallel over batches).
  nn::EvalResult evaluate(const Vec& params);

 private:
  // evt::AsyncEngine runs its sync policy through run() and builds its
  // event-driven runs on prepare_run / record_point / finalize_run and
  // base_weights, sharing the edge_sync re-entrancy guard
  // (edge_sync_entries_).
  friend class hfl::evt::AsyncEngine;

  void build_states(Algorithm& alg, RunState& rs);
  // Dense-mode half of build_states: fill worker_pool with every worker's
  // state and point the view at it.
  void build_dense_workers(RunState& rs, const Vec& x0,
                           const std::vector<std::size_t>& edge_samples,
                           std::size_t total_samples);

  // Shared loop body behind both run() overloads and run_with_oracle();
  // `oracle` may be null (full availability).
  RunResult run_impl(Algorithm& alg, const AvailabilityOracle* oracle);

  // Interval head: with a provider, sample (or, on the first interval,
  // materialize) the cohort; compose interval k's roster from the cohort
  // and the oracle; with a provider, run Algorithm::init (first interval)
  // and init_worker on first-timers.
  void begin_interval(Algorithm& alg, RunState& rs, std::size_t k,
                      const AvailabilityOracle* oracle);

  // Per-worker data masses D_i that Participation renormalizes.
  std::vector<Scalar> base_weights() const;

  // ---- Run lifecycle, also used by evt::AsyncEngine. ----
  // Build states, wire ctx, size the comm payloads, open interval 1.
  void prepare_run(Algorithm& alg, const AvailabilityOracle* oracle,
                   RunState& rs);
  // Evaluate `params` and append a curve point at iteration t.
  void record_point(RunState& rs, std::size_t t, const Vec& params,
                    Scalar sim_time = 0);
  // Mean participation, iteration counter, final accuracy/loss/params.
  void finalize_run(Algorithm& alg, RunState& rs);

  // ---- Per-step pieces of run_impl's barrier loop. ----
  // The local-step block of iteration ctx.t: fused cohort prefetch (or the
  // fallback counter) + the parallel per-worker local_step dispatch.
  void run_local_steps(Algorithm& alg, RunState& rs);
  // The edge barrier at t = kτ: serial comm/counter pre-pass, then edge_sync
  // dispatched concurrently (or serially for non-re-entrant algorithms).
  void run_edge_syncs(Algorithm& alg, RunState& rs, std::size_t k);
  // The cloud round at t = pτπ (comm records + Algorithm::cloud_sync);
  // no-op without survivors. Does NOT record the curve point.
  void run_cloud_sync(Algorithm& alg, RunState& rs, std::size_t p);
  // Interval tail at t = kτ: sync counters, absent_sync for non-participants
  // and the participation trace entry.
  void finish_interval(Algorithm& alg, RunState& rs, std::size_t k);

  // Fused cohort path: draw every active worker's batch, run one batched
  // forward/backward (src/nn/cohort.h), deposit the gradients so each
  // worker's first compute_gradient call consumes its precomputed result.
  // Only called when cohort_ is set and the algorithm honours the prefetch
  // contract (Algorithm::local_gradient_prefetchable).
  void prefetch_cohort_gradients(Algorithm& alg, Context& ctx,
                                 WorkerSet& workers);

  nn::ModelFactory factory_;
  CohortProvider* provider_ = nullptr;
  const data::TrainTest* data_;
  data::Partition partition_;
  Topology topo_;
  RunConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<nn::Model>> eval_models_;  // one per thread
  // Non-null when cfg_.batched and the architecture compiles to a cohort
  // plan; per-iteration scratch rides along to avoid reallocation.
  std::unique_ptr<nn::CohortModel> cohort_;
  std::vector<nn::CohortItem> cohort_items_;
  std::vector<std::size_t> cohort_ids_;
  std::atomic<int> edge_sync_entries_{0};  // debug re-entrancy guard state
};

}  // namespace hfl::fl

// Simulation engine: drives an Algorithm over the three-tier topology.
//
// The engine owns the simulation clock. Per iteration it runs every worker's
// local_step on the thread pool (workers are data-parallel: each owns its
// parameters, RNG and batch streams, so the run is bit-reproducible for a
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
// Execution: each engine compiles one nn::CohortModel plan for its
// architecture (src/nn/cohort.h; an architecture it cannot compile fails
// the constructor). It runs the batched gradient prefetch
// (RunConfig::batched), every unbatched worker gradient (the engine binds
// the plan onto each state the cohort provider materializes) and every
// evaluation.
//
// Worker state: every run reads its workers through a CohortProvider. An
// attached provider (a sampled pop::CohortStore) materializes each interval's
// cohort; without one the engine builds its own full-cohort store at the
// start of its first run, which materializes every worker once per run.
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
namespace hfl::pop {
class CohortStore;
}

namespace hfl::fl {

// Owner of worker-state lifetime (implemented by pop::CohortStore,
// src/pop/cohort_store.h). The engine owns only the shared tiers; the
// provider materializes the workers it is asked for — the whole population
// once for a full cohort, or each interval's sampled cohort, spilling and
// restoring revisited workers bit-identically. The engine drives the
// provider strictly serially.
class CohortProvider {
 public:
  virtual ~CohortProvider() = default;

  virtual std::size_t population() const = 0;
  // True when the provider draws strict sub-population cohorts (the engine
  // then requires evaluation points to be cloud-aligned — a mid-interval
  // virtual-global-model eval would need every worker materialized).
  virtual bool sampling() const = 0;
  // Per-worker data masses D_i for Participation renormalization.
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
  // Id-addressed view over the provider's materialized pool.
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
  // The interval's cohort (ascending ids: the whole population unless the
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
  ~Engine();

  RunResult run(Algorithm& alg) { return run(alg, nullptr); }

  // Fault-aware run. `schedule` may be null (full participation) and must
  // outlive the call; it is validated against the topology and config, then
  // queried through a ScheduleOracle.
  RunResult run(Algorithm& alg, const ParticipationSchedule* schedule);

  // Attach a provider (a sampled pop::CohortStore) and every subsequent
  // run reads its workers from it, materializing only each interval's
  // cohort. Pass nullptr to fall back to the engine's own full-cohort
  // store. The provider must outlive the engine and describe the engine's
  // own topology/partition.
  void set_cohort_provider(CohortProvider* provider);

  // Fault-aware run on an availability oracle — the loop behind both run()
  // overloads. A lazily-evaluated oracle (sim::SparseFaultPlan) computes
  // fault state only for sampled workers. `oracle` may be null (full
  // availability) and must outlive the call.
  RunResult run_with_oracle(Algorithm& alg, const AvailabilityOracle* oracle);

  const Topology& topology() const { return topo_; }
  const RunConfig& config() const { return cfg_; }
  const data::Partition& partition() const { return partition_; }

  // Evaluate arbitrary parameters on the test set: 128-sample batches,
  // parallel over contiguous batch blocks, forward passes through the plan,
  // per-batch partials merged in batch-index order — bit-identical to
  // per-batch Model::evaluate calls at any thread count.
  nn::EvalResult evaluate(const Vec& params);

 private:
  // evt::AsyncEngine runs its sync policy through run() and builds its
  // event-driven runs on prepare_run / record_point / finalize_run and
  // provider, sharing the edge_sync re-entrancy guard
  // (edge_sync_entries_).
  friend class hfl::evt::AsyncEngine;

  // The attached provider, else the engine's own full-cohort store (built
  // on first use, so an engine whose runs all use an attached provider
  // never pays for it).
  CohortProvider& provider();

  void build_states(RunState& rs);

  // Interval head: sample (or, on the first interval of a full-cohort run,
  // materialize) the cohort and bind the plan onto its states; compose
  // interval k's roster from the cohort and the oracle; run Algorithm::init
  // (first interval) and init_worker on first-timers.
  void begin_interval(Algorithm& alg, RunState& rs, std::size_t k,
                      const AvailabilityOracle* oracle);

  // ---- Run lifecycle, also used by evt::AsyncEngine. ----
  // Build states, wire ctx, size the comm payloads, open interval 1.
  void prepare_run(Algorithm& alg, const AvailabilityOracle* oracle,
                   RunState& rs);
  // Evaluate `params` and append a curve point at iteration t.
  void record_point(RunState& rs, std::size_t t, const Vec& params,
                    Scalar sim_time = 0);
  // Mean participation, iteration counter, final accuracy/loss/params.
  void finalize_run(Algorithm& alg, RunState& rs);

  // ---- Per-step pieces of run_with_oracle's barrier loop. ----
  // The local-step block of iteration ctx.t: fused cohort prefetch (when
  // batched and the algorithm allows it) + the parallel per-worker
  // local_step dispatch.
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
  // Only called when cfg_.batched and the algorithm honours the prefetch
  // contract (Algorithm::local_gradient_prefetchable).
  void prefetch_cohort_gradients(Algorithm& alg, Context& ctx,
                                 WorkerSet& workers);

  nn::ModelFactory factory_;
  CohortProvider* provider_ = nullptr;  // attached; null = own_store_
  const data::TrainTest* data_;
  data::Partition partition_;
  Topology topo_;
  RunConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<nn::CohortModel> plan_;  // the compiled plan
  // Prefetch scratch, reused across iterations.
  std::vector<nn::CohortItem> cohort_items_;
  std::vector<std::size_t> cohort_ids_;
  std::atomic<int> edge_sync_entries_{0};  // debug re-entrancy guard state
  // Last, so it is destroyed first: it points into partition_, topo_ and
  // pool_.
  std::unique_ptr<pop::CohortStore> own_store_;
};

}  // namespace hfl::fl

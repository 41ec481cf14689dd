// Algorithm interface.
//
// The engine drives the simulation clock (t = 1..T) and calls:
//   * local_step  — once per worker per iteration (run in parallel; the hook
//                   must only touch its worker's state),
//   * edge_sync   — at t = kτ, once per edge, only for three-tier algorithms.
//                   Distinct edges are dispatched CONCURRENTLY on the
//                   engine's thread pool, so implementations must be
//                   re-entrant across edges: per-call scratch lives on the
//                   stack or in thread_local storage, never in members (see
//                   edge_sync_reentrant below for the escape hatch),
//   * cloud_sync  — at t = pτπ (single call; never concurrent with itself),
//   * absent_sync — once per non-participating worker per synchronization,
//                   only when a fault schedule drives the run.
// `Context` bundles the read-only run configuration and the mutable tier
// states. `Context::part` is null for fault-free runs; under a fault
// schedule it exposes the surviving roster and renormalized weights
// (src/fl/availability.h) — the engine never calls edge_sync/cloud_sync for
// a tier with no survivors. `Context::pool` is the engine's thread pool, for
// the deterministic parallel reductions of src/fl/state.h (null in
// hand-built test contexts — all helpers degrade to the serial path).
#pragma once

#include <atomic>
#include <string>

#include "src/common/errors.h"
#include "src/fl/availability.h"
#include "src/fl/config.h"
#include "src/fl/state.h"

// Debug builds always carry the edge_sync re-entrancy guard; release builds
// compile it out unless a build preset (e.g. HFL_SANITIZE) forces it on.
#if !defined(NDEBUG) && !defined(HFL_SYNC_GUARD)
#define HFL_SYNC_GUARD 1
#endif

namespace hfl::fl {

struct Context {
  const RunConfig* cfg = nullptr;
  const Topology* topo = nullptr;
  WorkerSet* workers = nullptr;
  std::vector<EdgeState>* edges = nullptr;
  CloudState* cloud = nullptr;
  std::size_t t = 0;  // current iteration (1-based while stepping)
  const Participation* part = nullptr;  // null = full participation
  ThreadPool* pool = nullptr;  // engine pool for deterministic reductions
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;
  // Three-tier algorithms get edge_sync callbacks; two-tier ones require
  // cfg.pi == 1 (enforced by the engine) so that their global period is τ.
  virtual bool three_tier() const = 0;

  // Called once before the first iteration, after the first cohort is
  // materialized (x/y initialized to the common starting point).
  // Population-level setup only — per-worker setup belongs in init_worker,
  // because workers are materialized lazily (src/pop/cohort_store.h): under
  // cohort sampling `ctx.workers` holds just the first interval's cohort
  // here, in a full-cohort run every worker.
  virtual void init(Context& ctx) { (void)ctx; }

  // Per-worker setup hook, called right after init() for the first cohort
  // and later whenever a worker is materialized for the first time, in
  // ascending id order within each cohort (its state is then x = y = x0,
  // zero accumulators, fresh streams). Must derive everything from the
  // worker's own state/streams and population-level values — never from
  // which other workers exist — so a worker's state does not depend on the
  // cohort schedule that first materialized it.
  virtual void init_worker(Context& ctx, WorkerState& w) {
    (void)ctx;
    (void)w;
  }

  // One local iteration on worker w. Must not touch other workers.
  virtual void local_step(Context& ctx, WorkerState& w) = 0;

  // Gradient-prefetch contract for the fused cohort path (src/nn/cohort.h).
  // When this returns true, the FIRST gradient evaluation inside local_step
  // must be `w.compute_gradient(local_gradient_point(w))` — the engine then
  // draws each active worker's batch up front, computes all those gradients
  // in one batched pass, and deposits them so that compute_gradient call
  // returns the precomputed (bit-identical in FP64) result instead of
  // running the model. Opt-in: the default is false (per-worker path), so an
  // algorithm that never calls compute_gradient, calls it at another point,
  // or evaluates a paired SVRG gradient first is never mis-prefetched; every
  // registry algorithm that satisfies the contract overrides this to true.
  // Contract violations behind a true override fail loudly (src/fl/state.cpp
  // pointer checks), never silently.
  virtual bool local_gradient_prefetchable() const { return false; }

  // The point the prefetched gradient is evaluated at. Default: the worker's
  // current iterate.
  virtual const Vec& local_gradient_point(const WorkerState& w) const {
    return w.x;
  }

  // Edge synchronization at t = kτ (k passed for algorithms that care).
  // Called concurrently for distinct edges when edge_sync_reentrant() is
  // true; must then confine mutation to its edge's state, its edge's
  // workers, and thread-safe sinks (obs). Anything order-dependent (RNG
  // draws, shared accumulators) must be derived per (k, edge) so the result
  // is independent of edge execution order.
  virtual void edge_sync(Context& ctx, EdgeState& e, std::size_t k) {
    (void)ctx;
    (void)e;
    (void)k;
  }

  // Re-entrancy contract for edge_sync. Implementations that keep per-call
  // scratch or order-dependent state in members must override this to return
  // false; the engine then walks their edges serially (in edge-index order,
  // matching the 1-thread schedule bit for bit). The debug-mode guard below
  // fails loudly if a serial-only edge_sync is ever entered concurrently.
  virtual bool edge_sync_reentrant() const { return true; }

  // True when a sync hook reads state off every active worker of the
  // population (Mime's server-statistic probe): such algorithms need the
  // full population materialized, so the virtualized engine rejects them
  // under cohort sampling unless RunConfig::mime_cohort_stats opts into the
  // cohort-estimated statistic.
  virtual bool probes_population() const { return false; }

  // Cloud synchronization at t = pτπ.
  virtual void cloud_sync(Context& ctx, std::size_t p) = 0;

  // Called after the synchronization at t = kτ for every worker that did not
  // participate (its own outage or its edge's). The default applies the
  // schedule's absent-momentum policy to the worker's slice (y and the
  // interval accumulators — workers keep no per-algorithm vectors); override
  // for algorithm-specific bookkeeping.
  virtual void absent_sync(Context& ctx, WorkerState& w, std::size_t k) {
    (void)k;
    if (ctx.part != nullptr) {
      apply_absent_policy(w, ctx.part->absent_policy(),
                          ctx.part->absent_decay());
    }
  }

  // Event-driven runs only (evt::AsyncEngine): called when worker w's update
  // is admitted with staleness `tau` > 0 aggregator versions, before the
  // aggregation folds it in. The default shrinks the worker's momentum state
  // by cfg->stale_momentum_decay per staleness step (1 = hold, the no-op
  // default; 0 = reset) — stale momentum was accumulated against an old
  // anchor, and the decay knob lets a run damp it without touching the
  // algorithm. Override for algorithm-specific staleness corrections.
  virtual void stale_sync(Context& ctx, WorkerState& w, std::size_t tau) {
    const Scalar decay = ctx.cfg->stale_momentum_decay;
    if (decay >= 1.0 || tau == 0) return;
    Scalar factor = 1.0;
    for (std::size_t i = 0; i < tau; ++i) factor *= decay;
    apply_absent_policy(w, AbsentPolicy::kDecay, factor);
  }
};

// Debug-mode re-entrancy guard for edge_sync (active when the build defines
// HFL_SYNC_GUARD — plain debug builds and every sanitizer preset; compiled
// out of release builds). The engine wraps each edge_sync call in one of
// these around a per-run entry counter: an algorithm whose
// edge_sync_reentrant() is false must never be observed inside edge_sync by
// two threads at once, so a member-scratch regression that also forgets to
// flip the flag trips either this check (when mis-dispatched) or TSan (the
// sanitized suite runs the parallel tier with the guard enabled) instead of
// silently corrupting curves.
class EdgeSyncGuard {
 public:
#if defined(HFL_SYNC_GUARD)
  EdgeSyncGuard(std::atomic<int>& entries, bool reentrant)
      : entries_(&entries) {
    const int prev = entries_->fetch_add(1, std::memory_order_acq_rel);
    if (!reentrant && prev != 0) {
      // Roll back before throwing: a throwing constructor never runs the
      // destructor, and the counter must stay balanced for later guards.
      entries_->fetch_sub(1, std::memory_order_acq_rel);
      HFL_CHECK(false,
                "non-re-entrant edge_sync entered concurrently — the engine "
                "must serialize algorithms with edge_sync_reentrant() == "
                "false");
    }
  }
  ~EdgeSyncGuard() { entries_->fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<int>* entries_;
#else
  EdgeSyncGuard(std::atomic<int>&, bool) {}
#endif

 public:
  EdgeSyncGuard(const EdgeSyncGuard&) = delete;
  EdgeSyncGuard& operator=(const EdgeSyncGuard&) = delete;
};

}  // namespace hfl::fl

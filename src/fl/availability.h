// Partial participation: who survives each synchronization interval.
//
// The engine's default contract is that every worker survives every edge
// interval and every barrier completes. Real multi-tier deployments violate
// that constantly — workers drop out, edge nodes go dark, uplinks flake.
// This module is the fl-side half of the fault subsystem:
//
//   * `AvailabilityOracle` is the only fault interface of every engine and
//     of the modeled clock: a lazily evaluated per-(interval, worker) /
//     per-(interval, edge) answer, plus the worker's compute stretch and
//     upload attempts. It says nothing about *why* a worker is absent —
//     `sim::FaultPlan` (src/sim/fault_plan.h) implements it from seeded
//     fault models, so every algorithm replays the identical fault trace,
//     the same discipline as the engine's batch streams.
//
//   * `Participation` is the engine's runtime view of one interval: it
//     materializes the surviving roster and the renormalized data-size
//     weights (absent workers' mass is redistributed over the survivors,
//     per edge and globally; absent edges' mass over the surviving edges).
//     Its per-worker state is roster-aligned: one population-sized u32
//     id → roster-position table, everything else sized by the roster.
//
// A null `Participation*` everywhere means full participation and reduces
// every helper to the exact pre-fault code path — the engine guarantees
// bit-identical results for fault-free runs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/fl/config.h"
#include "src/fl/state.h"

namespace hfl::fl {

// What happens to a worker's momentum parameter y and interval accumulators
// while it misses a synchronization.
enum class AbsentPolicy {
  kHold,   // keep momentum and accumulators as-is (resume where it left off)
  kReset,  // collapse momentum onto the model (y = x) and zero the interval
           // accumulators
  kDecay,  // shrink momentum and accumulators toward the reset point by a
           // configurable factor per missed synchronization
};

// Lazily evaluated availability, indexed by edge interval k >= 1 (interval k
// covers iterations ((k-1)τ, kτ]). Answers per-(interval, worker) queries
// without materializing an O(intervals × population) schedule, so the
// virtualized engine path pays only for the sampled cohort. Implementations
// must be pure functions of their construction inputs, so the answer for a
// given (k, id) never depends on which other slots were queried or in what
// order (`sim::FaultPlan` replays per-entity forked RNG streams to get
// this). Queries arrive from serial passes only (the engine's sampling
// pass, the event loop, the clock replay) — no thread-safety requirement.
class AvailabilityOracle {
 public:
  virtual ~AvailabilityOracle() = default;
  virtual bool worker_available(std::size_t k, std::size_t worker) const = 0;
  virtual bool edge_available(std::size_t k, std::size_t edge) const = 0;
  virtual AbsentPolicy absent_policy() const { return AbsentPolicy::kHold; }
  virtual Scalar absent_decay() const { return 0.5; }
  // Compute stretch >= 1 of the worker's interval k (the modeled clocks
  // multiply its compute time by it).
  virtual Scalar worker_slowdown(std::size_t /*k*/,
                                 std::size_t /*worker*/) const {
    return 1.0;
  }
  // Upload attempts the worker needs at interval k: 1 = clean, > 1 =
  // retries after transient link failures (the clocks' backoff model).
  virtual std::size_t upload_attempts(std::size_t /*k*/,
                                      std::size_t /*worker*/) const {
    return 1;
  }
  // True when the oracle changes nothing about a run (everyone up, no
  // slowdown, clean uploads). The engines then treat it as null and take
  // the exact fault-free code path.
  virtual bool is_noop() const { return false; }
  // Throws hfl::Error when the oracle was built for a fleet of another
  // shape. Every consumer calls it first, no-op oracles included.
  virtual void validate(const Topology& /*topo*/) const {}
};

// The engine's per-interval participation view: surviving rosters and
// renormalized aggregation weights. Owned by the engine; algorithms access
// it through `Context::part` and the null-tolerant helpers below.
//
// One roster mode: the caller names the interval's cohort (ascending ids)
// with an up bit and optional mass scale per member, plus the edges that are
// online; everyone outside the cohort is absent. Full-cohort runs pass the
// whole population as the cohort, sampled runs the drawn cohort, the event
// engine the admitted arrivals — all through set_cohort_roster.
//
// Layout: the view pays for the roster, not the population. The only
// population-sized array is a u32 id → roster-position table (kNone = off
// the roster); the active bits, effective masses and both weights live in
// arrays aligned with the roster, so every per-worker query is one table
// read plus one roster-array read. Per-edge arrays are O(edges). A new
// roster resets only the previous roster's table entries. Data masses are
// not copied: the view reads D_i through the caller's MassFn, for roster
// members and, once in the constructor, for the static per-edge masses.
class Participation {
 public:
  // Worker i's data-size mass D_i (must stay callable for the view's
  // lifetime).
  using MassFn = std::function<Scalar(std::size_t worker)>;

  // `base_weight` supplies each worker's data-size mass D_i to
  // renormalize. When `edge_faults` is false (two-tier runs, where workers
  // talk straight to the cloud), edge outages are ignored. Starts with every
  // worker and edge absent; the absent policy defaults to kHold until
  // set_absent_policy(). Sums each edge's static mass once (its workers in
  // ascending id order) for set_edge_roster.
  Participation(const Topology& topo, MassFn base_weight, bool edge_faults);

  // Materialize a roster: exactly `cohort_ids` (ascending, unique) may be up
  // — cohort member i is up iff cohort_up[i] and (three-tier) its edge is
  // up. `cohort_scale`, when non-null, is aligned with cohort_ids and
  // multiplies member i's data-size mass before renormalization (the
  // multiplicity of with-replacement draws, or the staleness weight s(τ) of
  // event-driven aggregation — weights stay normalized per edge and
  // globally, only the relative mass shifts). Costs O(cohort + edges): only
  // the previous roster's members are reset. Every mass sum walks members
  // in ascending id order (workers_of_edge lists ascending ids, so a
  // per-edge roster built from the ascending cohort is ordered too).
  void set_cohort_roster(const std::vector<WorkerId>& cohort_ids,
                         const std::vector<std::uint8_t>& cohort_up,
                         const std::vector<std::uint8_t>& edge_up,
                         const std::vector<Scalar>* cohort_scale = nullptr);

  // A cloud-tier roster of edges only. Every worker is absent (algorithm
  // worker loops guarded by is_active skip them), yet an up edge counts as
  // active by itself — unlike set_cohort_roster, which deactivates an edge
  // with no surviving workers. Edge weights are renormalized over the up
  // edges by their static data mass, so a singleton roster gives that edge
  // weight exactly 1. The event-driven engine folds an edge's upload into
  // the cloud through this view without touching the edge's (possibly
  // in-flight) workers — the causal fix for the retroactive subtree
  // refresh. Costs O(previous roster + edges).
  void set_edge_roster(const std::vector<std::uint8_t>& edge_up);

  // Absent-momentum policy reported to absent_sync.
  void set_absent_policy(AbsentPolicy policy, Scalar decay);

  // Worker i survives this interval AND (three-tier) its edge is reachable.
  bool worker_active(std::size_t worker) const {
    const std::uint32_t p = pos_[worker];
    return p != kNone && active_[p] != 0;
  }
  // Edge is online and has at least one surviving worker.
  bool edge_active(std::size_t edge) const { return edge_active_[edge] != 0; }

  // Surviving workers of `edge`, ascending ids (empty if the edge is down).
  const std::vector<WorkerId>& active_workers_of_edge(std::size_t edge) const {
    return active_of_edge_[edge];
  }

  // Renormalized weights (zero for absent workers/edges).
  Scalar weight_in_edge(std::size_t worker) const {
    const std::uint32_t p = pos_[worker];
    return p != kNone ? weight_in_edge_[p] : 0.0;
  }
  Scalar weight_global(std::size_t worker) const {
    const std::uint32_t p = pos_[worker];
    return p != kNone ? weight_global_[p] : 0.0;
  }
  Scalar edge_weight_global(std::size_t edge) const {
    return edge_weight_[edge];
  }

  std::size_t num_active() const { return num_active_; }

  AbsentPolicy absent_policy() const { return policy_; }
  Scalar absent_decay() const { return decay_; }

  // Heap bytes the view holds (the fl.participation.bytes gauge):
  // 4 B per worker for the position table plus O(roster + edges).
  std::size_t bytes() const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Return the previous roster's members to the all-absent baseline.
  void clear_roster();

  const Topology* topo_;
  MassFn base_weight_;
  bool edge_faults_;
  AbsentPolicy policy_ = AbsentPolicy::kHold;
  Scalar decay_ = 0.5;

  std::vector<std::uint32_t> pos_;  // id → roster position, kNone = absent
  // Aligned with the roster: member p is worker roster_ids_[p].
  std::vector<WorkerId> roster_ids_;
  std::vector<std::uint8_t> active_;
  std::vector<Scalar> mass_;  // effective mass this roster (D_i·scale)
  std::vector<Scalar> weight_in_edge_;
  std::vector<Scalar> weight_global_;
  // Per edge.
  std::vector<Scalar> static_edge_mass_;  // Σ D_i, ascending ids
  std::vector<std::uint8_t> edge_active_;
  std::vector<std::vector<WorkerId>> active_of_edge_;
  std::vector<Scalar> edge_weight_;
  std::size_t num_active_ = 0;
};

// ---- Null-tolerant helpers (part == nullptr ⇒ full participation). ----
//
// Algorithms use these instead of the raw topology/state weights so that one
// code path serves both the fault-free contract (bit-identical to the
// pre-fault engine) and partial participation.

bool is_active(const Participation* part, std::size_t worker);
bool is_edge_active(const Participation* part, std::size_t edge);

// Surviving workers of `edge`; the full roster when part is null.
const std::vector<WorkerId>& active_workers(const Participation* part,
                                            const Topology& topo,
                                            std::size_t edge);

Scalar active_weight_in_edge(const Participation* part, const WorkerState& w);
Scalar active_weight_global(const Participation* part, const WorkerState& w);
Scalar active_edge_weight(const Participation* part, const EdgeState& e);

// Apply an absent-worker momentum policy to a worker that missed a sync.
void apply_absent_policy(WorkerSlice& w, AbsentPolicy policy, Scalar decay);

}  // namespace hfl::fl

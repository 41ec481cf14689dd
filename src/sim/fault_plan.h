// Deterministic fault & availability models for multi-tier FL runs.
//
// The paper's experiments assume every worker survives every edge interval
// and every barrier completes; the multi-tier networks HierAdMo targets are
// exactly where workers drop out, straggle and links flake. This module
// turns seeded fault models into a `sim::FaultPlan`, the
// `fl::AvailabilityOracle` every engine and the modeled clock replay:
//
//   * dropout    — i.i.d. Bernoulli: each worker independently misses each
//                  edge interval with probability `prob`;
//   * churn      — Markov on/off: an online worker fails with `p_fail` per
//                  interval, an offline one recovers with `p_recover`
//                  (models sessions/outages with temporal correlation);
//   * straggler  — a fixed fraction of workers run slow by a mean `slowdown`
//                  factor with per-interval jitter; a deadline policy drops
//                  any worker whose interval slowdown exceeds the time
//                  budget (expressed as a slowdown multiple);
//   * link       — transient upload failures: each attempt fails with
//                  `loss_prob`, up to `max_retries` attempts per sync; a
//                  worker that exhausts its retries misses the sync (the
//                  retry count feeds the time simulator's backoff model);
//   * edge_outage — whole edge nodes go dark for an interval, taking their
//                  subtree out of both the edge and the cloud barrier.
//
// Determinism contract: every answer is a pure function of
// (config.seed, fleet shape, interval, entity). Every worker and edge draws
// from its own forked RNG stream, so the trace is independent of the
// algorithm, of thread scheduling, of query order and of every other stream
// in the engine — the same discipline as the engine's batch streams. Two
// plans built from identical inputs answer every query identically, so
// every algorithm in a sweep replays the identical fault trace. The plan
// has no horizon: any interval k >= 1 has an answer.
//
// The plan is lazy: one draw routine (`detail::worker_step` /
// `detail::edge_step`) replays each queried entity's stream on demand, so a
// million-worker run pays only for the workers it asks about:
//
//   * construction precomputes only the O(n)-bit straggler-role bitmap (one
//     fleet-level stream in worker order, so it cannot be derived per
//     worker), and only when a straggler model is configured;
//   * the first query for an entity derives its stream statelessly
//     (Rng::fork_nth) and replays interval rows up to the asked one,
//     caching a per-entity cursor with that interval's whole step;
//   * later queries advance the cursor forward, or rewind by replaying
//     from the stream head (queries going backward are rare: the engines
//     ask in nondecreasing interval order per entity).
//
// tests/fault_golden_test.cpp pins the answers to recorded trace digests.
// Queries are serial-only, per the AvailabilityOracle contract: concurrent
// runs need one plan each.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/fl/availability.h"
#include "src/fl/config.h"
#include "src/fl/topology.h"

namespace hfl::sim {

struct DropoutModel {
  Scalar prob = 0.0;  // P(worker misses an interval), i.i.d. per interval
};

struct ChurnModel {
  Scalar p_fail = 0.0;     // P(online → offline) per interval
  Scalar p_recover = 1.0;  // P(offline → online) per interval
  Scalar p_start_down = 0.0;  // P(worker starts interval 1 offline)
};

struct StragglerModel {
  Scalar fraction = 0.0;  // fraction of the fleet that straggles
  Scalar slowdown = 1.0;  // mean compute stretch of a straggler (≥ 1)
  Scalar jitter = 0.0;    // per-interval multiplicative jitter (std of a
                          // truncated normal around the mean factor)
  // Deadline policy: > 0 drops any worker whose interval slowdown factor
  // exceeds this budget (it would blow the barrier's time budget). 0 = off.
  Scalar deadline_slowdown = 0.0;
};

struct LinkFaultModel {
  Scalar loss_prob = 0.0;      // P(one upload attempt fails)
  std::size_t max_retries = 3; // attempts allowed per sync (≥ 1)
};

struct EdgeOutageModel {
  Scalar prob = 0.0;  // P(edge node dark for an interval), i.i.d.
};

struct FaultConfig {
  std::uint64_t seed = 42;

  DropoutModel dropout;
  ChurnModel churn;
  StragglerModel straggler;
  LinkFaultModel link;
  EdgeOutageModel edge_outage;

  // What happens to an absent worker's momentum/accumulator state.
  fl::AbsentPolicy absent_policy = fl::AbsentPolicy::kHold;
  Scalar absent_decay = 0.5;

  // True when no fault model is switched on — the plan changes nothing and
  // every engine takes the exact fault-free code path.
  bool is_noop() const;

  // Throws hfl::Error on out-of-range probabilities/factors.
  void validate() const;
};

// The per-entity draw routine behind the plan. Every stream is forked
// statelessly off the plan root with the fork numbering: fork 1 = straggler
// roles, fork 2 + w = worker w, fork 2 + n + e = edge e (n workers),
// whatever models are switched on.
namespace detail {
// The fleet-level straggler draw (one stream, worker order): 1 marks a
// persistently slow worker. Empty when no straggler model is configured.
std::vector<std::uint8_t> straggler_roles(const Rng& root,
                                          const FaultConfig& cfg,
                                          std::size_t num_workers);

// Replay position in one worker's fault stream.
struct WorkerCursor {
  Rng rng{0};
  std::size_t k = 0;       // last replayed interval (0 = before interval 1)
  bool online = true;      // Markov churn state after interval k
  bool straggler = false;  // persistent straggler role
};

// One interval of one worker's trace.
struct WorkerStep {
  bool up = true;
  Scalar slowdown = 1.0;      // compute stretch ≥ 1
  std::size_t attempts = 1;   // upload attempts (1 = clean)
};

WorkerCursor worker_cursor(const Rng& root, const FaultConfig& cfg,
                           std::size_t worker, bool straggler);
// Draw interval c.k + 1 — churn, dropout, straggler factor, deadline drop,
// link retries, in that order — and advance the cursor.
WorkerStep worker_step(const FaultConfig& cfg, WorkerCursor& c);

Rng edge_stream(const Rng& root, std::size_t num_workers, std::size_t edge);
// Draw the next interval of an edge's outage stream; true = edge up.
bool edge_step(const FaultConfig& cfg, Rng& rng);
}  // namespace detail

// The lazily replayed fault trace of one fleet.
class FaultPlan final : public fl::AvailabilityOracle {
 public:
  FaultPlan(std::size_t num_workers, std::size_t num_edges, FaultConfig cfg);
  // Validates `run` and sizes the plan to `topo`.
  FaultPlan(const fl::Topology& topo, const fl::RunConfig& run,
            FaultConfig cfg);

  bool worker_available(std::size_t k, std::size_t worker) const override {
    return worker_at(k, worker).up;
  }
  Scalar worker_slowdown(std::size_t k, std::size_t worker) const override {
    return worker_at(k, worker).slowdown;
  }
  // Meaningful only when the worker is available at k.
  std::size_t upload_attempts(std::size_t k,
                              std::size_t worker) const override {
    return worker_at(k, worker).attempts;
  }
  bool edge_available(std::size_t k, std::size_t edge) const override;
  fl::AbsentPolicy absent_policy() const override {
    return cfg_.absent_policy;
  }
  Scalar absent_decay() const override { return cfg_.absent_decay; }
  // A config with no model switched on. A retry-only config is not a
  // no-op: it drops nobody, yet stretches modeled upload time.
  bool is_noop() const override { return cfg_.is_noop(); }
  // Throws hfl::Error unless the plan was built for `topo`'s shape.
  void validate(const fl::Topology& topo) const override;

  const FaultConfig& config() const { return cfg_; }

 private:
  struct WorkerSlot {
    detail::WorkerCursor cursor;
    detail::WorkerStep step;  // interval cursor.k
  };
  struct EdgeSlot {
    Rng rng{0};
    std::size_t k = 0;
    bool up = true;
  };

  // Worker `worker`'s step at interval k, replayed through its cursor.
  const detail::WorkerStep& worker_at(std::size_t k, std::size_t worker) const;

  FaultConfig cfg_;
  std::size_t num_workers_ = 0;
  std::size_t num_edges_ = 0;
  Rng root_;
  std::vector<std::uint8_t> is_straggler_;
  // Lazy per-entity replay cursors (mutable: queries are logically const
  // and, per the oracle contract, serial).
  mutable std::unordered_map<std::size_t, WorkerSlot> worker_cursors_;
  mutable std::unordered_map<std::size_t, EdgeSlot> edge_cursors_;
};

}  // namespace hfl::sim

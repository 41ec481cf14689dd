// Lazily-evaluated fault traces for virtualized populations.
//
// `FaultPlan` materializes the full O(intervals × workers) availability
// schedule up front — exactly what a million-worker run cannot afford, and
// wasted work when only the sampled cohort is ever queried.
// `SparseFaultPlan` answers the same queries through the
// `fl::AvailabilityOracle` interface by replaying the same per-entity
// streams on demand, through the same draw routine (`detail::worker_step`,
// `detail::edge_step` in fault_plan.h):
//
//   * construction precomputes only the O(n)-bit straggler-role bitmap (one
//     fleet-level stream in worker order, so it cannot be derived per
//     worker), and only when a straggler model is configured;
//   * the first query for an entity derives its stream statelessly
//     (Rng::fork_nth, same fork numbering as FaultPlan) and replays interval
//     rows up to the asked one, caching a per-entity cursor;
//   * later queries advance the cursor forward, or rewind by replaying
//     from the stream head (queries going backward are rare: the engine
//     asks in nondecreasing interval order).
//
// So for every (interval, entity) the answer equals the FaultPlan built from
// the same config; tests/fault_golden_test.cpp pins both to recorded trace
// digests. Queries are serial-only, per the AvailabilityOracle contract.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/fl/availability.h"
#include "src/sim/fault_plan.h"

namespace hfl::sim {

class SparseFaultPlan final : public fl::AvailabilityOracle {
 public:
  SparseFaultPlan(std::size_t num_workers, std::size_t num_edges,
                  FaultConfig cfg);

  bool worker_available(std::size_t k, std::size_t worker) const override;
  bool edge_available(std::size_t k, std::size_t edge) const override;
  fl::AbsentPolicy absent_policy() const override {
    return cfg_.absent_policy;
  }
  Scalar absent_decay() const override { return cfg_.absent_decay; }

  const FaultConfig& config() const { return cfg_; }

 private:
  struct WorkerSlot {
    detail::WorkerCursor cursor;
    bool up = true;  // availability at interval cursor.k
  };
  struct EdgeSlot {
    Rng rng{0};
    std::size_t k = 0;
    bool up = true;
  };

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

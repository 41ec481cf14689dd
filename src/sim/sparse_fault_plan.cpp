#include "src/sim/sparse_fault_plan.h"

#include "src/common/errors.h"

namespace hfl::sim {

SparseFaultPlan::SparseFaultPlan(std::size_t num_workers,
                                 std::size_t num_edges, FaultConfig cfg)
    : cfg_(cfg),
      num_workers_(num_workers),
      num_edges_(num_edges),
      root_(cfg.seed) {
  cfg_.validate();
  HFL_CHECK(num_workers_ > 0 && num_edges_ > 0,
            "fault plan needs at least one worker and one edge");
  is_straggler_ = detail::straggler_roles(root_, cfg_, num_workers_);
}

bool SparseFaultPlan::worker_available(std::size_t k,
                                       std::size_t worker) const {
  HFL_CHECK(k >= 1 && worker < num_workers_,
            "fault-plan query out of range");
  auto [it, inserted] = worker_cursors_.try_emplace(worker);
  WorkerSlot& slot = it->second;
  if (inserted || k < slot.cursor.k) {
    slot.cursor = detail::worker_cursor(
        root_, cfg_, worker,
        !is_straggler_.empty() && is_straggler_[worker] != 0);
  }
  while (slot.cursor.k < k) {
    slot.up = detail::worker_step(cfg_, slot.cursor).up;
  }
  return slot.up;
}

bool SparseFaultPlan::edge_available(std::size_t k, std::size_t edge) const {
  HFL_CHECK(k >= 1 && edge < num_edges_, "fault-plan query out of range");
  if (cfg_.edge_outage.prob <= 0.0) return true;
  auto [it, inserted] = edge_cursors_.try_emplace(edge);
  EdgeSlot& c = it->second;
  if (inserted || k < c.k) {
    c.rng = detail::edge_stream(root_, num_workers_, edge);
    c.k = 0;
    c.up = true;
  }
  while (c.k < k) {
    c.up = detail::edge_step(cfg_, c.rng);
    ++c.k;
  }
  return c.up;
}

}  // namespace hfl::sim

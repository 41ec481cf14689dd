#include "src/fl/availability.h"

#include <utility>

#include "src/common/errors.h"

namespace hfl::fl {

Participation::Participation(const Topology& topo, MassFn base_weight,
                             bool edge_faults)
    : topo_(&topo), base_weight_(std::move(base_weight)),
      edge_faults_(edge_faults) {
  const std::size_t n = topo.num_workers();
  const std::size_t l = topo.num_edges();
  HFL_CHECK(base_weight_ != nullptr, "participation needs the data masses");
  HFL_CHECK(n < kNone, "roster positions are 32-bit");
  pos_.assign(n, kNone);
  static_edge_mass_.assign(l, 0.0);
  for (std::size_t e = 0; e < l; ++e) {
    for (const WorkerId w : topo.workers_of_edge(e)) {
      static_edge_mass_[e] += base_weight_(w);
    }
  }
  edge_active_.assign(l, 0);
  active_of_edge_.resize(l);
  edge_weight_.assign(l, 0.0);
}

void Participation::clear_roster() {
  for (const WorkerId w : roster_ids_) pos_[w] = kNone;
  roster_ids_.clear();
  active_.clear();
  mass_.clear();
  weight_in_edge_.clear();
  weight_global_.clear();
  for (std::size_t e = 0; e < edge_active_.size(); ++e) {
    active_of_edge_[e].clear();
    edge_active_[e] = 0;
    edge_weight_[e] = 0.0;
  }
  num_active_ = 0;
}

void Participation::set_cohort_roster(const std::vector<WorkerId>& cohort_ids,
                                      const std::vector<std::uint8_t>& cohort_up,
                                      const std::vector<std::uint8_t>& edge_up,
                                      const std::vector<Scalar>* cohort_scale) {
  const std::size_t n = pos_.size();
  const std::size_t l = edge_active_.size();
  const std::size_t m = cohort_ids.size();
  HFL_CHECK(cohort_up.size() == m, "cohort_up must align with cohort_ids");
  HFL_CHECK(edge_up.size() == l,
            "set_cohort_roster edge array does not match the topology");
  HFL_CHECK(cohort_scale == nullptr || cohort_scale->size() == m,
            "cohort scale vector does not match the cohort size");
  clear_roster();

  // Positions, activity bits, effective masses, and per-edge rosters in one
  // ascending pass.
  roster_ids_.reserve(m);
  active_.resize(m);
  mass_.resize(m);
  weight_in_edge_.assign(m, 0.0);
  weight_global_.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const WorkerId w = cohort_ids[i];
    HFL_CHECK(w < n, "cohort id out of range");
    HFL_CHECK(i == 0 || cohort_ids[i - 1] < w,
              "cohort ids must be ascending and unique");
    roster_ids_.push_back(w);
    pos_[w] = static_cast<std::uint32_t>(i);
    const std::size_t e = topo_->edge_of_worker(w);
    const bool edge_ok = !edge_faults_ || edge_up[e] != 0;
    active_[i] = (cohort_up[i] != 0 && edge_ok) ? 1 : 0;
    num_active_ += active_[i];
    mass_[i] = base_weight_(w) *
               (cohort_scale == nullptr ? 1.0 : (*cohort_scale)[i]);
    if (active_[i]) active_of_edge_[e].push_back(w);
  }

  // Renormalization: edges ascending for the edge/global masses, cohort
  // (= active superset) ascending for the worker-level mass.
  Scalar global_mass = 0;
  for (std::size_t e = 0; e < l; ++e) {
    const auto& roster = active_of_edge_[e];
    Scalar edge_mass = 0;
    for (const WorkerId w : roster) edge_mass += mass_[pos_[w]];
    edge_active_[e] =
        (!edge_faults_ || edge_up[e] != 0) && !roster.empty() ? 1 : 0;
    for (const WorkerId w : roster) {
      weight_in_edge_[pos_[w]] = mass_[pos_[w]] / edge_mass;
    }
    edge_weight_[e] = edge_mass;  // provisional; normalized below
    if (edge_active_[e]) global_mass += edge_mass;
  }

  Scalar active_mass = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (active_[i]) active_mass += mass_[i];
  }
  for (std::size_t i = 0; i < m; ++i) {
    weight_global_[i] =
        active_[i] && active_mass > 0 ? mass_[i] / active_mass : 0.0;
  }
  for (std::size_t e = 0; e < l; ++e) {
    edge_weight_[e] = edge_active_[e] && global_mass > 0
                          ? edge_weight_[e] / global_mass
                          : 0.0;
  }
}

void Participation::set_edge_roster(const std::vector<std::uint8_t>& edge_up) {
  const std::size_t l = edge_active_.size();
  HFL_CHECK(edge_up.size() == l,
            "set_edge_roster edge array does not match the topology");
  clear_roster();

  // Edge activity comes straight from edge_up (no surviving-worker
  // requirement); edge weights renormalize the static per-edge masses over
  // the up edges, ascending.
  Scalar global_mass = 0;
  for (std::size_t e = 0; e < l; ++e) {
    edge_active_[e] = edge_up[e] != 0 ? 1 : 0;
    if (edge_active_[e]) global_mass += static_edge_mass_[e];
  }
  for (std::size_t e = 0; e < l; ++e) {
    edge_weight_[e] = edge_active_[e] && global_mass > 0
                          ? static_edge_mass_[e] / global_mass
                          : 0.0;
  }
}

std::size_t Participation::bytes() const {
  std::size_t b = heap_bytes(pos_) + heap_bytes(roster_ids_) +
                  heap_bytes(active_) + heap_bytes(mass_) +
                  heap_bytes(weight_in_edge_) + heap_bytes(weight_global_) +
                  heap_bytes(static_edge_mass_) + heap_bytes(edge_active_) +
                  heap_bytes(active_of_edge_) + heap_bytes(edge_weight_);
  for (const std::vector<WorkerId>& r : active_of_edge_) b += heap_bytes(r);
  return b;
}

void Participation::set_absent_policy(AbsentPolicy policy, Scalar decay) {
  HFL_CHECK(decay >= 0.0 && decay <= 1.0, "absent decay must be in [0, 1]");
  policy_ = policy;
  decay_ = decay;
}

bool is_active(const Participation* part, std::size_t worker) {
  return part == nullptr || part->worker_active(worker);
}

bool is_edge_active(const Participation* part, std::size_t edge) {
  return part == nullptr || part->edge_active(edge);
}

const std::vector<WorkerId>& active_workers(const Participation* part,
                                            const Topology& topo,
                                            std::size_t edge) {
  if (part == nullptr) return topo.workers_of_edge(edge);
  return part->active_workers_of_edge(edge);
}

Scalar active_weight_in_edge(const Participation* part, const WorkerState& w) {
  return part == nullptr ? w.weight_in_edge : part->weight_in_edge(w.id);
}

Scalar active_weight_global(const Participation* part, const WorkerState& w) {
  return part == nullptr ? w.weight_global : part->weight_global(w.id);
}

Scalar active_edge_weight(const Participation* part, const EdgeState& e) {
  return part == nullptr ? e.weight_global : part->edge_weight_global(e.id);
}

void apply_absent_policy(WorkerSlice& w, AbsentPolicy policy, Scalar decay) {
  switch (policy) {
    case AbsentPolicy::kHold:
      break;
    case AbsentPolicy::kReset:
      w.y = w.x;
      w.reset_interval_accumulators();
      break;
    case AbsentPolicy::kDecay:
      vec::decay_toward(w.y, w.x, decay);
      for (const IntervalAccumulator& acc : kIntervalAccumulators) {
        vec::scale(w.*acc.vec, decay);
      }
      break;
  }
}

}  // namespace hfl::fl

#include "src/sim/fault_plan.h"

#include <algorithm>
#include <string>

#include "src/common/errors.h"

namespace hfl::sim {

namespace {

// Fork tags of the per-entity fault streams.
constexpr std::uint64_t kWorkerStreamBase = 0x5EED0000;
constexpr std::uint64_t kEdgeStreamBase = 0xED6E0000;
constexpr std::uint64_t kStragglerAssign = 0x57A60001;

bool in_unit(Scalar p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

bool FaultConfig::is_noop() const {
  return dropout.prob == 0.0 && churn.p_fail == 0.0 &&
         churn.p_start_down == 0.0 && straggler.fraction == 0.0 &&
         link.loss_prob == 0.0 && edge_outage.prob == 0.0;
}

void FaultConfig::validate() const {
  HFL_CHECK(in_unit(dropout.prob), "dropout.prob must be in [0, 1]");
  HFL_CHECK(in_unit(churn.p_fail) && in_unit(churn.p_recover) &&
                in_unit(churn.p_start_down),
            "churn probabilities must be in [0, 1]");
  HFL_CHECK(churn.p_fail == 0.0 || churn.p_recover > 0.0,
            "churn.p_recover must be positive when churn.p_fail is set "
            "(otherwise workers fail permanently and never return)");
  HFL_CHECK(in_unit(straggler.fraction), "straggler.fraction must be in [0, 1]");
  HFL_CHECK(straggler.slowdown >= 1.0, "straggler.slowdown must be >= 1");
  HFL_CHECK(straggler.jitter >= 0.0, "straggler.jitter must be >= 0");
  HFL_CHECK(straggler.deadline_slowdown == 0.0 ||
                straggler.deadline_slowdown >= 1.0,
            "straggler.deadline_slowdown must be 0 (off) or >= 1");
  HFL_CHECK(in_unit(link.loss_prob) && link.loss_prob < 1.0,
            "link.loss_prob must be in [0, 1)");
  HFL_CHECK(link.max_retries >= 1, "link.max_retries must be >= 1");
  HFL_CHECK(in_unit(edge_outage.prob) && edge_outage.prob < 1.0,
            "edge_outage.prob must be in [0, 1)");
  HFL_CHECK(absent_decay >= 0.0 && absent_decay <= 1.0,
            "absent_decay must be in [0, 1]");
}

namespace detail {

std::vector<std::uint8_t> straggler_roles(const Rng& root,
                                          const FaultConfig& cfg,
                                          std::size_t num_workers) {
  std::vector<std::uint8_t> roles;
  if (cfg.straggler.fraction <= 0.0) return roles;
  Rng assign = root.fork_nth(kStragglerAssign, 1);
  roles.resize(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    roles[w] = assign.uniform() < cfg.straggler.fraction ? 1 : 0;
  }
  return roles;
}

WorkerCursor worker_cursor(const Rng& root, const FaultConfig& cfg,
                           std::size_t worker, bool straggler) {
  WorkerCursor c;
  c.rng = root.fork_nth(kWorkerStreamBase + worker, 2 + worker);
  c.online = c.rng.uniform() >= cfg.churn.p_start_down;
  c.straggler = straggler;
  return c;
}

WorkerStep worker_step(const FaultConfig& cfg, WorkerCursor& c) {
  const std::size_t k = ++c.k;
  WorkerStep step;

  // Markov churn state for this interval.
  if (cfg.churn.p_fail > 0.0 || cfg.churn.p_start_down > 0.0) {
    if (k > 1) {
      const Scalar flip = c.rng.uniform();
      c.online = c.online ? flip >= cfg.churn.p_fail
                          : flip < cfg.churn.p_recover;
    }
  } else {
    c.online = true;
  }

  bool up = c.online;

  // i.i.d. dropout on top of churn.
  if (cfg.dropout.prob > 0.0 && c.rng.uniform() < cfg.dropout.prob) {
    up = false;
  }

  // Straggler slowdown (drawn even for absent workers to keep the stream
  // aligned across configs that only differ in other models).
  if (c.straggler) {
    Scalar factor = cfg.straggler.slowdown;
    if (cfg.straggler.jitter > 0.0) {
      factor *= std::max(Scalar{0.2}, c.rng.normal(1.0, cfg.straggler.jitter));
    }
    step.slowdown = std::max(Scalar{1.0}, factor);
  }

  // Deadline policy: a straggler over the time budget is dropped at the
  // barrier.
  if (cfg.straggler.deadline_slowdown > 0.0 &&
      step.slowdown > cfg.straggler.deadline_slowdown) {
    up = false;
  }

  // Transient link faults: geometric retry count, capped by the retry
  // budget; exhausting the budget means the upload never lands.
  if (up && cfg.link.loss_prob > 0.0) {
    while (c.rng.uniform() < cfg.link.loss_prob) {
      if (step.attempts == cfg.link.max_retries) {
        up = false;
        break;
      }
      ++step.attempts;
    }
  }

  step.up = up;
  return step;
}

Rng edge_stream(const Rng& root, std::size_t num_workers, std::size_t edge) {
  return root.fork_nth(kEdgeStreamBase + edge, 2 + num_workers + edge);
}

bool edge_step(const FaultConfig& cfg, Rng& rng) {
  return !(rng.uniform() < cfg.edge_outage.prob);
}

}  // namespace detail

FaultPlan::FaultPlan(std::size_t num_workers, std::size_t num_edges,
                     FaultConfig cfg)
    : cfg_(cfg),
      num_workers_(num_workers),
      num_edges_(num_edges),
      root_(cfg.seed) {
  cfg_.validate();
  HFL_CHECK(num_workers_ > 0 && num_edges_ > 0,
            "fault plan needs at least one worker and one edge");
  is_straggler_ = detail::straggler_roles(root_, cfg_, num_workers_);
}

FaultPlan::FaultPlan(const fl::Topology& topo, const fl::RunConfig& run,
                     FaultConfig cfg)
    : FaultPlan(topo.num_workers(), topo.num_edges(), cfg) {
  run.validate();
}

void FaultPlan::validate(const fl::Topology& topo) const {
  HFL_CHECK(num_workers_ == topo.num_workers() &&
                num_edges_ == topo.num_edges(),
            "fault plan built for " + std::to_string(num_workers_) +
                " workers on " + std::to_string(num_edges_) +
                " edges but the topology has " +
                std::to_string(topo.num_workers()) + " on " +
                std::to_string(topo.num_edges()));
}

const detail::WorkerStep& FaultPlan::worker_at(std::size_t k,
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
    slot.step = detail::worker_step(cfg_, slot.cursor);
  }
  return slot.step;
}

bool FaultPlan::edge_available(std::size_t k, std::size_t edge) const {
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

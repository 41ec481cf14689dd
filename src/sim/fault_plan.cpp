#include "src/sim/fault_plan.h"

#include <algorithm>

#include "src/common/errors.h"

namespace hfl::sim {

using detail::kEdgeStreamBase;
using detail::kStragglerAssign;
using detail::kWorkerStreamBase;

namespace {

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

FaultPlan::FaultPlan(const fl::Topology& topo, const fl::RunConfig& run,
                     FaultConfig cfg)
    : cfg_(cfg) {
  run.validate();
  cfg_.validate();

  const std::size_t n = topo.num_workers();
  const std::size_t l = topo.num_edges();
  const std::size_t intervals = run.total_iterations / run.tau;

  schedule_.num_intervals = intervals;
  schedule_.num_workers = n;
  schedule_.num_edges = l;
  schedule_.worker_up.assign(intervals * n, 1);
  schedule_.slowdown.assign(intervals * n, 1.0);
  schedule_.edge_up.assign(intervals * l, 1);
  schedule_.absent_policy = cfg_.absent_policy;
  schedule_.absent_decay = cfg_.absent_decay;
  attempts_.assign(intervals * n, 1);

  Rng root(cfg_.seed);

  // Straggler roles are a fleet-level draw (one stream, worker order): the
  // configured fraction picks which workers are persistently slow.
  std::vector<std::uint8_t> is_straggler(n, 0);
  {
    Rng assign = root.fork(kStragglerAssign);
    for (std::size_t w = 0; w < n; ++w) {
      is_straggler[w] = assign.uniform() < cfg_.straggler.fraction ? 1 : 0;
    }
  }

  // Per-worker streams: every availability/slowdown/link draw for worker w
  // comes from fork(kWorkerStreamBase + w), so the trace for one worker is
  // independent of the fleet size ordering of the loops below.
  for (std::size_t w = 0; w < n; ++w) {
    Rng wrng = root.fork(kWorkerStreamBase + w);
    bool online = wrng.uniform() >= cfg_.churn.p_start_down;
    for (std::size_t k = 1; k <= intervals; ++k) {
      const std::size_t idx = (k - 1) * n + w;

      // Markov churn state for this interval.
      if (cfg_.churn.p_fail > 0.0 || cfg_.churn.p_start_down > 0.0) {
        if (k > 1) {
          const Scalar flip = wrng.uniform();
          online = online ? flip >= cfg_.churn.p_fail
                          : flip < cfg_.churn.p_recover;
        }
      } else {
        online = true;
      }

      bool up = online;

      // i.i.d. dropout on top of churn.
      if (cfg_.dropout.prob > 0.0 && wrng.uniform() < cfg_.dropout.prob) {
        up = false;
      }

      // Straggler slowdown (drawn even for absent workers to keep the
      // stream aligned across configs that only differ in other models).
      Scalar factor = 1.0;
      if (is_straggler[w]) {
        factor = cfg_.straggler.slowdown;
        if (cfg_.straggler.jitter > 0.0) {
          factor *= std::max(Scalar{0.2},
                             wrng.normal(1.0, cfg_.straggler.jitter));
        }
        factor = std::max(Scalar{1.0}, factor);
      }
      schedule_.slowdown[idx] = factor;

      // Deadline policy: a straggler over the time budget is dropped at the
      // barrier.
      if (cfg_.straggler.deadline_slowdown > 0.0 &&
          factor > cfg_.straggler.deadline_slowdown) {
        up = false;
      }

      // Transient link faults: geometric retry count, capped by the retry
      // budget; exhausting the budget means the upload never lands.
      if (up && cfg_.link.loss_prob > 0.0) {
        std::size_t attempt = 1;
        while (wrng.uniform() < cfg_.link.loss_prob) {
          if (attempt == cfg_.link.max_retries) {
            up = false;
            break;
          }
          ++attempt;
        }
        attempts_[idx] = attempt;
      }

      schedule_.worker_up[idx] = up ? 1 : 0;
    }
  }

  // Per-edge outage streams.
  if (cfg_.edge_outage.prob > 0.0) {
    for (std::size_t e = 0; e < l; ++e) {
      Rng erng = root.fork(kEdgeStreamBase + e);
      for (std::size_t k = 1; k <= intervals; ++k) {
        if (erng.uniform() < cfg_.edge_outage.prob) {
          schedule_.edge_up[(k - 1) * l + e] = 0;
        }
      }
    }
  }
}

Scalar FaultPlan::planned_participation() const {
  if (schedule_.worker_up.empty()) return 1.0;
  std::size_t up = 0;
  for (const std::uint8_t u : schedule_.worker_up) up += u;
  return static_cast<Scalar>(up) /
         static_cast<Scalar>(schedule_.worker_up.size());
}

}  // namespace hfl::sim

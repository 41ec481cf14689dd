#include "src/fl/config.h"

#include <string>

#include "src/common/errors.h"

namespace hfl::fl {

const char* to_string(ExecPolicy policy) {
  switch (policy) {
    case ExecPolicy::kSync:
      return "sync";
    case ExecPolicy::kSemiAsync:
      return "semi_async";
    case ExecPolicy::kAsync:
      return "async";
  }
  return "unknown";
}

void RunConfig::validate() const {
  HFL_CHECK(total_iterations > 0, "total_iterations must be positive");
  HFL_CHECK(tau > 0, "tau (worker-edge period) must be positive");
  HFL_CHECK(pi > 0, "pi (edge-cloud period) must be positive");
  HFL_CHECK(total_iterations % (tau * pi) == 0,
            "total_iterations (" + std::to_string(total_iterations) +
                ") must be a multiple of tau * pi (" +
                std::to_string(tau * pi) + ")");
  HFL_CHECK(eta > 0, "learning rate eta must be positive");
  HFL_CHECK(gamma >= 0 && gamma < 1, "momentum gamma must be in [0, 1)");
  HFL_CHECK(gamma_edge >= 0 && gamma_edge < 1,
            "edge momentum gamma_edge must be in [0, 1)");
  HFL_CHECK(batch_size > 0, "batch_size must be positive");

  // Event-driven policy fields (DESIGN.md §12).
  HFL_CHECK(policy != ExecPolicy::kSemiAsync || semi_async_deadline_s > 0,
            "policy = semi_async requires semi_async_deadline_s > 0 "
            "(the modeled seconds each aggregator round waits before "
            "admitting the updates that have arrived)");
  HFL_CHECK(policy == ExecPolicy::kSemiAsync || semi_async_deadline_s == 0,
            "semi_async_deadline_s is only meaningful under policy = "
            "semi_async; got " + std::to_string(semi_async_deadline_s) +
            " under policy = " + to_string(policy) +
            " (set it to 0 or switch the policy)");
  HFL_CHECK(max_staleness >= 0,
            "max_staleness must be >= 0 (updates more than max_staleness "
            "aggregator versions behind are dropped); got " +
                std::to_string(max_staleness));
  HFL_CHECK(staleness_decay > 0 && staleness_decay <= 1,
            "staleness_decay must be in (0, 1] — the staleness weight is "
            "staleness_decay^tau, so 0 or negative values erase or flip "
            "updates; got " + std::to_string(staleness_decay));
  HFL_CHECK(stale_momentum_decay >= 0 && stale_momentum_decay <= 1,
            "stale_momentum_decay must be in [0, 1] (1 = hold momentum, "
            "0 = reset); got " + std::to_string(stale_momentum_decay));
  HFL_CHECK(!adaptive_deadline || policy == ExecPolicy::kSemiAsync,
            "adaptive_deadline tunes semi-async admission deadlines and "
            "requires policy = semi_async; got policy = " +
                std::string(to_string(policy)));
  HFL_CHECK(deadline_margin > 0,
            "deadline_margin must be > 0 (it scales the EWMA'd arrival "
            "spread into the next admission deadline); got " +
                std::to_string(deadline_margin));
  HFL_CHECK(policy == ExecPolicy::kSync || !batched,
            "the batched cohort path is barrier-shaped and unsupported "
            "under policy = " + std::string(to_string(policy)) +
            " (set batched = false; note batched defaults to true)");
  HFL_CHECK(policy == ExecPolicy::kSync || eval_every == 0,
            "eval_every is iteration-indexed and undefined under policy = " +
                std::string(to_string(policy)) +
                "; event-driven runs evaluate at t = 0 and at every cloud "
                "synchronization (set eval_every = 0)");
}

}  // namespace hfl::fl

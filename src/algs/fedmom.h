// FedMom [19] (Huo et al., 2020: "Faster on-device training using new
// federated momentum algorithm").
//
// Two-tier aggregator-momentum baseline: workers run plain local SGD; the
// server applies a Nesterov step over rounds:
//     y_{p}  = x̄_p                      (the fresh worker average)
//     x_{p}  = y_p + γs (y_p − y_{p−1})
// with y_0 = x_0 and γs = cfg.gamma_edge.
#pragma once

#include "src/fl/algorithm.h"

namespace hfl::algs {

class FedMom final : public fl::Algorithm {
 public:
  // fl::CloudState::extra slots: the server's previous y.
  enum : std::size_t { kServerYSlot, kNumSlots };

  std::string name() const override { return "FedMom"; }
  bool three_tier() const override { return false; }
  void init(fl::Context& ctx) override;
  bool local_gradient_prefetchable() const override { return true; }
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  void cloud_sync(fl::Context& ctx, std::size_t p) override;

 private:
  Vec x_scratch_;
};

}  // namespace hfl::algs

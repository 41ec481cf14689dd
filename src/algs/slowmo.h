// SlowMo [20] (Wang et al., ICLR 2020: "SlowMo: Improving
// communication-efficient distributed SGD with slow momentum").
//
// Two-tier aggregator-momentum baseline: workers run plain local SGD; the
// server keeps a slow momentum buffer over the round-level pseudo-gradient
// Δ_p = x_{p−1} − x̄_p:
//     m_p = β m_{p−1} + Δ_p
//     x_p = x_{p−1} − α m_p
// with β = cfg.gamma_edge and slow learning rate α = 1 (the SlowMo default).
#pragma once

#include "src/fl/algorithm.h"

namespace hfl::algs {

class SlowMo final : public fl::Algorithm {
 public:
  // fl::CloudState::extra slots: the slow momentum m.
  enum : std::size_t { kSlowMomentumSlot, kNumSlots };

  explicit SlowMo(Scalar slow_lr = 1.0) : slow_lr_(slow_lr) {}

  std::string name() const override { return "SlowMo"; }
  bool three_tier() const override { return false; }
  void init(fl::Context& ctx) override;
  bool local_gradient_prefetchable() const override { return true; }
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  void cloud_sync(fl::Context& ctx, std::size_t p) override;

 private:
  Scalar slow_lr_;
  Vec x_scratch_;
};

}  // namespace hfl::algs

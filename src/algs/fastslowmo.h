// FastSlowMo [23] (Yang et al., IEEE TAI 2022: "FastSlowMo: Federated
// learning with combined worker and aggregator momenta").
//
// Two-tier combination-momentum baseline: workers run NAG (fast momentum);
// the server additionally applies SlowMo-style slow momentum on the round
// pseudo-gradient and re-distributes both the updated model and the
// aggregated worker momentum parameter:
//     x̄_p = Σ w_i x_i,   ȳ_p = Σ w_i y_i
//     m_p = β m_{p−1} + (x_{p−1} − x̄_p)
//     x_p = x_{p−1} − m_p;   worker state ← (x_p, ȳ_p)
#pragma once

#include "src/fl/algorithm.h"

namespace hfl::algs {

class FastSlowMo final : public fl::Algorithm {
 public:
  // fl::CloudState::extra slots: the slow momentum m.
  enum : std::size_t { kSlowMomentumSlot, kNumSlots };

  std::string name() const override { return "FastSlowMo"; }
  bool three_tier() const override { return false; }
  void init(fl::Context& ctx) override;
  bool local_gradient_prefetchable() const override { return true; }
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  void cloud_sync(fl::Context& ctx, std::size_t p) override;

 private:
  Vec x_scratch_;
};

}  // namespace hfl::algs

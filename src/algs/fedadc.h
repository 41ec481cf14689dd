// FedADC [24] (Ozfatura et al., ISIT 2021: "FedADC: Accelerated federated
// learning with drift control").
//
// Two-tier combination-momentum baseline. The server momentum doubles as a
// drift-control signal: it is re-distributed to the workers, whose local
// steps descend along the drift-corrected direction
//     d = ∇F_i(x) + β u          (u: server momentum, read-only locally)
//     x ← x − η d.
// At each synchronization the server updates u with the normalized round
// pseudo-gradient and adopts the average model:
//     u ← β u + (1−β) (x_{p−1} − x̄_p)/(τ η),   x_p = x̄_p.
#pragma once

#include "src/fl/algorithm.h"

namespace hfl::algs {

class FedAdc final : public fl::Algorithm {
 public:
  // fl::CloudState::extra slots: the server momentum u.
  enum : std::size_t { kDriftSlot, kNumSlots };

  std::string name() const override { return "FedADC"; }
  bool three_tier() const override { return false; }
  void init(fl::Context& ctx) override;
  bool local_gradient_prefetchable() const override { return true; }
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  void cloud_sync(fl::Context& ctx, std::size_t p) override;

 private:
  Vec x_scratch_;
};

}  // namespace hfl::algs

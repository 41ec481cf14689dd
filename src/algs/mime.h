// Mime [22] (Karimireddy et al., 2020: "Mime: Mimicking centralized
// stochastic algorithms in federated learning"), momentum instantiation.
//
// Two-tier worker-momentum baseline that mimics centralized SGD-with-momentum
// at every local step. Server state: momentum m and the server gradient
// estimate ĝ = Σ w_i ∇F_i(x_server) (probed per round), both frozen during
// local steps. The SVRG correction is evaluated PAIRED — both gradients on
// the same mini-batch B, so the sampling noise cancels in the difference:
//     g̃ = ∇F_B(x) − ∇F_B(x_server) + ĝ
//     x ← x − η ((1−β) g̃ + β m)
// At synchronization: x ← Σ w_i x_i, then ĝ is re-probed and
// m ← (1−β) ĝ + β m. β = cfg.gamma. `svrg_correction=false` yields MimeLite
// (plain ∇F_B(x) in place of g̃).
#pragma once

#include "src/fl/algorithm.h"

namespace hfl::algs {

class Mime final : public fl::Algorithm {
 public:
  // fl::CloudState::extra slots: the momentum m and the server gradient ĝ.
  enum : std::size_t { kMomentumSlot, kServerGradSlot, kNumSlots };

  // `lr_scale` multiplies cfg.eta for Mime's local steps. Mime's stale
  // per-round statistics (ĝ, m frozen for the whole aggregation period) make
  // every worker push coherently along one direction; at the shared η the
  // method overshoots on non-convex models. The Mime paper tunes the client
  // learning rate separately per algorithm — this is that knob, with a
  // conservative default.
  explicit Mime(bool svrg_correction = true, Scalar lr_scale = 0.3)
      : svrg_correction_(svrg_correction), lr_scale_(lr_scale) {}

  std::string name() const override {
    return svrg_correction_ ? "Mime" : "MimeLite";
  }
  bool three_tier() const override { return false; }
  // Full Mime evaluates a PAIRED gradient (compute_gradient_pair) as its
  // first evaluation, which the cohort prefetch cannot serve; MimeLite's
  // first evaluation is the plain ∇F_B(x) and prefetches fine.
  bool local_gradient_prefetchable() const override {
    return !svrg_correction_;
  }
  // The ĝ probe walks every active worker; under cohort sampling the engine
  // requires RunConfig::mime_cohort_stats (cohort-renormalized estimate).
  bool probes_population() const override { return true; }
  void init(fl::Context& ctx) override;
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  void cloud_sync(fl::Context& ctx, std::size_t p) override;

 private:
  // Probes every worker's gradient at the server point, refreshing ĝ and
  // folding it into the momentum buffer.
  void refresh_server_stats(fl::Context& ctx);

  bool svrg_correction_;
  Scalar lr_scale_;
};

}  // namespace hfl::algs

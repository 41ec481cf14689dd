// HierAdMo — the paper's contribution (Algorithm 1).
//
// Three-tier FL with momentum at two levels:
//   * worker level — every worker runs NAG locally (lines 5–6);
//   * edge level   — every τ iterations each edge aggregates its workers'
//     models into y_{ℓ+} and applies an edge momentum step
//     x_{ℓ+} = y_{ℓ+} + γℓ (y_{ℓ+} − y_{ℓ+}^{prev}) (lines 12–13), after
//     aggregating and re-distributing the worker momenta (lines 11, 14–15);
//   * cloud level  — every τπ iterations the cloud averages the edges'
//     y_{ℓ−} and x_{ℓ+} and re-distributes both all the way down
//     (lines 18–23).
//
// The adaptive edge momentum factor (eqs. (6)–(7)) is recomputed at every
// edge synchronization from the cosine between each worker's accumulated
// descent direction −Σ∇F_i and its accumulated momentum signal, weighted by
// data share and clamped to [0, 0.99].
//
// On the momentum signal: eq. (6) accumulates the momentum *parameter* y_t
// and correlates it with the accumulated descent direction −Σ∇F_i. Two
// alternative readings are implemented as ablations: `kVelocity` replaces
// Σy_t with the momentum *component* Σv_t (Appendix A's equivalent update),
// and `kCrossWorker` follows footnote 1 ("a small part of worker momenta
// point to the opposite direction ... to the edge aggregated worker
// momentum") by correlating each worker's accumulated descent direction with
// the edge aggregate. `Signal::kMomentumValue` (the literal eq. (6)) is the
// default — in our experiments it is also decisively the right choice: the
// velocity variant reports cosθ ≈ 1 unconditionally (within one interval the
// displacement IS the integrated gradient), drives γℓ to its 0.99 cap, and
// reproduces exactly the double-acceleration instability the paper's
// adaptation is designed to prevent; the cross-worker variant is informative
// but runs hot early in training (all workers initially agree), which
// destabilizes large-τ runs. The literal form yields small-but-informative
// angles that throttle the edge momentum whenever the two levels disagree
// (see EXPERIMENTS.md, E8 ablation). Only `kVelocity` reads Σv_t, so only
// it sizes WorkerState::sum_v (init_worker); every other configuration
// neither allocates, streams nor spills it. The velocity v_t itself lives
// only inside the NAG step (core/nag.h).
//
// The γℓ pass streams each worker's Σ∇F_i and signal accumulator once and
// leaves +0.0 behind every element it reads (vec::cosines_clear), so those
// accumulators restart for the next interval without a second stream.
//
// HierAdMo-R (the reduced version of Theorem 5) is this class with
// `adaptive = false`: γℓ stays fixed at cfg.gamma_edge.
#pragma once

#include <memory>

#include "src/fl/algorithm.h"
#include "src/fl/compression.h"

namespace hfl::core {

struct HierAdMoOptions {
  // false => HierAdMo-R (fixed γℓ = cfg.gamma_edge, no adaptation).
  bool adaptive = true;

  enum class Signal {
    kMomentumValue,  // cos(−Σ∇F_i, Σ y_i) — eq. (6) literal; default
    kVelocity,       // cos(−Σ∇F_i, Σ v_i) — ablation (see header comment)
    kCrossWorker,    // cos(Σ∇F_i, Σ_j w_j Σ∇F_j) — footnote-1 reading:
                     // each worker's descent direction vs the edge aggregate
  };
  Signal signal = Signal::kMomentumValue;

  // Upper clamp of eq. (7); the paper uses 0.99 to avoid divergence.
  Scalar clamp_max = 0.99;

  // Optional lossy compression of the worker→edge uploads (model, momentum
  // and the line-9 accumulators) applied at every edge synchronization.
  // nullptr = lossless uploads. See fl/compression.h.
  fl::CompressorPtr upload_compressor;
};

class HierAdMo final : public fl::Algorithm {
 public:
  explicit HierAdMo(HierAdMoOptions options = {});

  std::string name() const override;
  bool three_tier() const override { return true; }

  // edge_sync keeps all scratch in thread_local storage, so it is re-entrant
  // across edges — unless a stateful (RNG-carrying) compressor is attached,
  // whose draw order must match the serial edge walk.
  bool edge_sync_reentrant() const override {
    return options_.upload_compressor == nullptr ||
           options_.upload_compressor->reentrant();
  }

  void init(fl::Context& ctx) override;
  // Sizes Σv under kVelocity, its only reader; it stays empty otherwise.
  void init_worker(fl::Context& ctx, fl::WorkerState& w) override;
  // Local steps evaluate ∇F_B(x) at the worker iterate first — the engine's
  // fused cohort prefetch serves them bit-identically.
  bool local_gradient_prefetchable() const override { return true; }
  void local_step(fl::Context& ctx, fl::WorkerState& w) override;
  void edge_sync(fl::Context& ctx, fl::EdgeState& e, std::size_t k) override;
  void cloud_sync(fl::Context& ctx, std::size_t p) override;

  const HierAdMoOptions& options() const { return options_; }

  // Computes cosθ_{k,ℓ} (eq. (6)) for edge e from the current worker
  // accumulators. Exposed for tests and diagnostics.
  Scalar compute_cos_theta(const fl::Context& ctx,
                           const fl::EdgeState& e) const;

  // Applies the clamp of eq. (7).
  Scalar clamp_gamma(Scalar cos_theta) const;

 private:
  // compute_cos_theta's pass; with `restart` every element it reads of the
  // workers' Σ∇F and signal accumulators is left +0.0 (same bits of cosθ).
  Scalar cos_theta_pass(const fl::Context& ctx, const fl::EdgeState& e,
                        bool restart) const;

  HierAdMoOptions options_;
};

// Convenience factories used by benches and examples.
std::unique_ptr<fl::Algorithm> make_hieradmo();
std::unique_ptr<fl::Algorithm> make_hieradmo_r();

}  // namespace hfl::core

// The NAG worker update shared by HierAdMo, FedNAG and FastSlowMo.
//
// Algorithm 1, lines 5–6 (Nesterov Accelerated Gradient in its y/x form):
//     y_t = x_{t−1} − η ∇F_i(x_{t−1})          (worker momentum update)
//     x_t = y_t + γ (y_t − y_{t−1})            (worker model update)
// The velocity v_t = y_t − y_{t−1} exists only inside the step. When
// requested the helper maintains the interval accumulators Σ∇F_i(x_t) and
// Σ y_t uploaded at edge synchronization (Algorithm 1, line 9), and Σ v_t
// when the worker's sum_v is sized (HierAdMo's kVelocity ablation).
#pragma once

#include "src/fl/state.h"

namespace hfl::core {

// Performs one NAG step on worker `w` using its next mini-batch.
// `accumulate` enables the interval accumulators (needed by HierAdMo's
// adaptive γℓ; the two-tier algorithms skip them).
// Returns the mini-batch loss.
Scalar nag_local_step(fl::WorkerState& w, Scalar eta, Scalar gamma,
                      bool accumulate);

// Plain SGD step: x ← x − η ∇F_i(x). Used by the no-worker-momentum
// baselines (FedAvg, HierFAVG, CFL, FedMom, SlowMo).
Scalar sgd_local_step(fl::WorkerState& w, Scalar eta);

}  // namespace hfl::core

#include "src/core/nag.h"

namespace hfl::core {

Scalar nag_local_step(fl::WorkerState& w, Scalar eta, Scalar gamma,
                      bool accumulate) {
  const Scalar loss = w.compute_gradient(w.x);  // grad = ∇F_i(x_{t−1})

  // y_t = x_{t−1} − η g;  x_t = y_t + γ (y_t − y_{t−1}).
  // One fused pass; with `accumulate` the HierAdMo sums over
  // t = (k−1)τ … kτ−1 ride along in the same pass, reading the gradient
  // position and the pre-update momentum parameter (Algorithm 1, line 9),
  // plus Σv when the worker carries it (sized only under kVelocity).
  if (accumulate) {
    vec::nag_step_accumulate(w.x, w.y, w.grad(), eta, gamma, w.sum_grad,
                             w.sum_y, w.sum_v);
  } else {
    vec::nag_step(w.x, w.y, w.grad(), eta, gamma);
  }
  return loss;
}

Scalar sgd_local_step(fl::WorkerState& w, Scalar eta) {
  const Scalar loss = w.compute_gradient(w.x);
  vec::axpy(-eta, w.grad(), w.x);
  return loss;
}

}  // namespace hfl::core

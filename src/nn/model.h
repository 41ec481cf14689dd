// Model: a network plus a loss, exposing the flat-parameter interface the
// federated-learning algorithms need.
//
// FL algorithms (src/core, src/algs) only ever see models through
//   * num_params / get_params / set_params — flat `Vec` round-trips,
//   * loss_and_gradient — gradient of the mean batch loss at given params,
//   * evaluate — accuracy/loss on held-out data.
// Each simulated worker owns its own Model instance (built by a
// ModelFactory), so parallel local updates need no locking.
#pragma once

#include <functional>
#include <span>

#include "src/nn/loss.h"
#include "src/nn/sequential.h"

namespace hfl::nn {

struct EvalResult {
  Scalar loss = 0;
  Scalar accuracy = 0;
};

class Model {
 public:
  // `sample_shape` is the shape of one input sample (without the batch
  // dimension), e.g. {1, 28, 28} for MNIST-like images.
  Model(std::unique_ptr<Sequential> net, LossPtr loss,
        std::vector<std::size_t> sample_shape);

  void init_params(Rng& rng);

  std::size_t num_params() const { return total_params_; }
  const std::vector<std::size_t>& sample_shape() const {
    return sample_shape_;
  }

  void get_params(Vec& out) const;
  Vec get_params() const;
  void set_params(std::span<const Scalar> params);

  void zero_grads();
  void get_grads(Vec& out) const;

  // Forward + backward on a batch, accumulating into the parameter grads.
  // Returns the mean batch loss.
  Scalar forward_backward(const Tensor& x,
                          const std::vector<std::size_t>& labels);

  // One-shot: set params, zero grads, forward/backward, extract the gradient.
  // This is the worker-update primitive (∇F_i(x) in the paper's notation).
  Scalar loss_and_gradient(std::span<const Scalar> params, const Tensor& x,
                           const std::vector<std::size_t>& labels, Vec& grad);

  // Evaluation-mode forward pass.
  Tensor predict(const Tensor& x);

  // Mean loss and top-1 accuracy over the given batch.
  EvalResult evaluate(const Tensor& x, const std::vector<std::size_t>& labels);

  // Structural access for the cohort executor (src/nn/cohort.cpp), which
  // walks the layer chain once to compile its fused execution plan.
  Sequential& net() { return *net_; }
  const Loss& loss_fn() const { return *loss_; }

 private:
  std::unique_ptr<Sequential> net_;
  LossPtr loss_;
  std::vector<std::size_t> sample_shape_;
  std::vector<Tensor*> param_tensors_;
  std::vector<Tensor*> grad_tensors_;
  std::size_t total_params_ = 0;
};

// Model::evaluate's tail: the mean loss of the (B, K) predictions `pred`
// through `loss` (whose forward caches state, so concurrent callers each
// bring their own) and the top-1 accuracy read off by row argmax.
// fl::Engine::evaluate runs the forward pass through the cohort plan
// (src/nn/cohort.h) and finishes with this same tail.
EvalResult evaluate_predictions(Loss& loss, const Tensor& pred,
                                const std::vector<std::size_t>& labels);

// Builds a fresh, independently-owned model instance (identical architecture,
// parameters initialized by the caller). Factories live in models.h.
using ModelFactory = std::function<std::unique_ptr<Model>()>;

}  // namespace hfl::nn

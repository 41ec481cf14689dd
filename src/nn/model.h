// Model: a network plus a loss, exposing the flat-parameter interface the
// federated-learning algorithms need.
//
// FL algorithms (src/core, src/algs) only ever see parameters as one flat
// `Vec`; `Model` initializes that vector and round-trips it through the
// layers' parameter tensors (num_params / get_params / set_params). Every
// gradient and every prediction runs through the compiled cohort plan
// (src/nn/cohort.h), which compiles itself from a Model's architecture —
// the layer structure, the sample shape and the loss — so the engines build
// one Model per architecture (through a ModelFactory), not one per worker.
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

  // The architecture the cohort plan compiles.
  const Sequential& net() const { return *net_; }
  const LossPtr& loss() const { return loss_; }

 private:
  std::unique_ptr<Sequential> net_;
  LossPtr loss_;
  std::vector<std::size_t> sample_shape_;
  std::vector<Tensor*> param_tensors_;
  std::size_t total_params_ = 0;
};

// The mean loss of the (B, K) logits `pred` through `loss`, and the top-1
// accuracy: a sample counts as correct when its label is the first maximum
// of its row (ties go to the lowest class index). fl::Engine::evaluate runs
// the forward pass through the cohort plan and finishes with this.
EvalResult evaluate_predictions(const Loss& loss, const Tensor& pred,
                                const std::vector<std::size_t>& labels);

// Builds a fresh, independently-owned model instance (identical architecture,
// parameters initialized by the caller). Factories live in models.h.
using ModelFactory = std::function<std::unique_ptr<Model>()>;

}  // namespace hfl::nn

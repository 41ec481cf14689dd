// Layer: one node of a model architecture.
//
// A layer is what the compiled cohort plan (src/nn/cohort.h) reads when it
// builds its stage list: the layer's kind, its geometry (each concrete
// layer's accessors), its parameter tensors and their initialization, and —
// for Sequential and Residual — the structure it nests. Layers run no
// arithmetic of their own: every forward and backward pass is a plan stage.
// They hold their parameters only so `Model` can initialize them and
// round-trip them through the single flat `Vec` that the federated-learning
// algorithms operate on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace hfl::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // Layer kind ("dense", "conv2d", ...); plan diagnostics name it.
  virtual std::string kind() const = 0;

  // Parameter tensors in flat-vector order (empty for stateless layers).
  virtual std::vector<Tensor*> params() { return {}; }

  // (Re-)initialize parameters. Stateless layers ignore this.
  virtual void init_params(Rng& rng) { (void)rng; }

  // Total number of scalar parameters.
  std::size_t num_params();
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace hfl::nn

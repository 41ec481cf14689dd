// Residual block: y = inner(x) + shortcut(x).
//
// The shortcut is the identity when the inner branch preserves the shape, or
// a caller-supplied projection layer (e.g. 1×1 convolution) when it does not.
// This is the structural core of the MiniResNet model standing in for the
// paper's ResNet18.
#pragma once

#include "src/nn/sequential.h"

namespace hfl::nn {

class Residual final : public Layer {
 public:
  // Identity shortcut.
  explicit Residual(LayerPtr inner);
  // Projection shortcut.
  Residual(LayerPtr inner, LayerPtr shortcut);

  std::string kind() const override { return "residual"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  void init_params(Rng& rng) override;

  // Structural access for the cohort executor (src/nn/cohort.cpp), which
  // compiles both paths into its execution plan.
  Layer& inner() { return *inner_; }
  Layer* shortcut() { return shortcut_.get(); }  // nullptr => identity

 private:
  LayerPtr inner_;
  LayerPtr shortcut_;  // nullptr => identity
};

}  // namespace hfl::nn

// Residual block: y = inner(x) + shortcut(x).
//
// The shortcut is the identity when the inner branch preserves the shape, or
// a caller-supplied projection layer (e.g. 1×1 convolution) when it does not.
// This is the structural core of the MiniResNet model standing in for the
// paper's ResNet18. The cohort plan (src/nn/cohort.cpp) compiles both paths
// into one stage; parameters are the inner branch's, then the shortcut's.
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
  std::vector<Tensor*> params() override;
  void init_params(Rng& rng) override;

  const Layer& inner() const { return *inner_; }
  const Layer* shortcut() const { return shortcut_.get(); }  // null: identity

 private:
  LayerPtr inner_;
  LayerPtr shortcut_;  // nullptr => identity
};

}  // namespace hfl::nn

// Fully-connected layer: y = x W^T + b.
//
// x is (B, in), W is (out, in), b is (out). He/Xavier initialization is
// selected at construction (He for layers followed by ReLU, Xavier
// otherwise).
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

enum class InitScheme {
  kHe,      // N(0, sqrt(2/fan_in)) — layers followed by ReLU
  kXavier,  // N(0, sqrt(1/fan_in)) — output/linear layers in deep nets
  kZero,    // all-zero — convex single-layer models (linear/logistic), where
            // zero init is the convention and keeps the early momentum
            // signal of eq. (6) free of random-init bias
};

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features,
        InitScheme init = InitScheme::kHe);

  std::string kind() const override { return "dense"; }
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  void init_params(Rng& rng) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  InitScheme init_;
  Tensor weight_, bias_;
};

}  // namespace hfl::nn

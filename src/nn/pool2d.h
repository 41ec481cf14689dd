// 2-D pooling layers over NCHW tensors (kernel == stride, no padding).
//
// MaxPool2d remembers the winning index per window for the backward pass;
// AvgPool2d (used by the MiniResNet head as global average pooling when the
// window covers the whole plane) spreads the gradient uniformly.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  std::size_t window() const { return window_; }

  // Window maxima of `planes` consecutive (H, W) planes at `x` into `out`;
  // with `argmax` non-null, each winner's flat index into `x` as well. The
  // layer and the cohort plan (src/nn/cohort.cpp) share this loop.
  static void forward_planes(std::size_t window, std::size_t planes,
                             std::size_t H, std::size_t W, const Scalar* x,
                             Scalar* out, std::size_t* argmax);

  std::string kind() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> in_shape_;
};

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t window);

  std::string kind() const override { return "avgpool2d"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  std::size_t window_;
  std::vector<std::size_t> in_shape_;
};

}  // namespace hfl::nn

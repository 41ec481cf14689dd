// 2-D pooling layers over NCHW tensors (kernel == stride, no padding).
//
// MaxPool2d routes each window's gradient to its first maximum; AvgPool2d
// (used by the MiniResNet head as global average pooling when the window
// covers the whole plane) spreads it uniformly. The cohort plan
// (src/nn/cohort.cpp) runs both.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  std::size_t window() const { return window_; }

  // Window maxima of `planes` consecutive (H, W) planes at `x` into `out`;
  // with `argmax` non-null, each winner's flat index into `x` as well. Ties
  // keep the first maximum in (kh, kw) scan order.
  static void forward_planes(std::size_t window, std::size_t planes,
                             std::size_t H, std::size_t W, const Scalar* x,
                             Scalar* out, std::size_t* argmax);

  std::string kind() const override { return "maxpool2d"; }

 private:
  std::size_t window_;
};

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t window);

  std::size_t window() const { return window_; }

  std::string kind() const override { return "avgpool2d"; }

 private:
  std::size_t window_;
};

}  // namespace hfl::nn

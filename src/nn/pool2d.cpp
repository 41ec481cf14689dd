#include "src/nn/pool2d.h"

namespace hfl::nn {

namespace {

// MaxPool2d::forward_planes for a compile-time window (Window > 0) or the
// runtime one (Window == 0).
template <std::size_t Window>
void max_pool_planes(std::size_t window_rt, std::size_t planes, std::size_t H,
                     std::size_t W, const Scalar* x, Scalar* out,
                     std::size_t* argmax) {
  const std::size_t window = Window > 0 ? Window : window_rt;
  const std::size_t OH = H / window, OW = W / window;
  std::size_t o = 0;
  for (std::size_t bc = 0; bc < planes; ++bc) {
    const Scalar* plane = x + bc * H * W;
    for (std::size_t oh = 0; oh < OH; ++oh) {
      for (std::size_t ow = 0; ow < OW; ++ow, ++o) {
        std::size_t best_idx = (oh * window) * W + ow * window;
        Scalar best = plane[best_idx];
        // The same `>` scan in (kh, kw) order, so ties keep the first
        // maximum, but with selects instead of a data-dependent branch:
        // which element wins is as unpredictable as the data.
        for (std::size_t kh = 0; kh < window; ++kh) {
          for (std::size_t kw = 0; kw < window; ++kw) {
            const std::size_t idx = (oh * window + kh) * W + ow * window + kw;
            const Scalar v = plane[idx];
            const bool greater = v > best;
            best = greater ? v : best;
            best_idx = greater ? idx : best_idx;
          }
        }
        out[o] = best;
        if (argmax != nullptr) argmax[o] = bc * H * W + best_idx;
      }
    }
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  HFL_CHECK(window_ > 0, "pool window must be positive");
}

void MaxPool2d::forward_planes(std::size_t window, std::size_t planes,
                               std::size_t H, std::size_t W, const Scalar* x,
                               Scalar* out, std::size_t* argmax) {
  // Every model here pools 2×2: with the window known at compile time the
  // (kh, kw) scan unrolls and the ow loop vectorizes.
  if (window == 2) {
    max_pool_planes<2>(window, planes, H, W, x, out, argmax);
  } else {
    max_pool_planes<0>(window, planes, H, W, x, out, argmax);
  }
}

AvgPool2d::AvgPool2d(std::size_t window) : window_(window) {
  HFL_CHECK(window_ > 0, "pool window must be positive");
}

}  // namespace hfl::nn

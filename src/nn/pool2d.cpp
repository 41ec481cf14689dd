#include "src/nn/pool2d.h"

namespace hfl::nn {

namespace {
void check_poolable(const Tensor& x, std::size_t window) {
  HFL_CHECK(x.rank() == 4, "pool2d expects NCHW input, got " +
                               x.shape_string());
  HFL_CHECK(x.dim(2) % window == 0 && x.dim(3) % window == 0,
            "pool2d input spatial dims must be divisible by window");
}

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

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  check_poolable(x, window_);
  const std::size_t B = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  Tensor out({B, C, H / window_, W / window_});
  in_shape_ = x.shape();
  argmax_.resize(out.size());
  forward_planes(window_, B * C, H, W, x.raw(), out.raw(), argmax_.data());
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  HFL_CHECK(grad_out.size() == argmax_.size(),
            "maxpool backward called without matching forward");
  Tensor grad_in(in_shape_);
  Scalar* pgi = grad_in.raw();
  const Scalar* pg = grad_out.raw();
  for (std::size_t o = 0; o < argmax_.size(); ++o) pgi[argmax_[o]] += pg[o];
  return grad_in;
}

AvgPool2d::AvgPool2d(std::size_t window) : window_(window) {
  HFL_CHECK(window_ > 0, "pool window must be positive");
}

Tensor AvgPool2d::forward(const Tensor& x, bool /*train*/) {
  check_poolable(x, window_);
  const std::size_t B = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const std::size_t OH = H / window_, OW = W / window_;
  in_shape_ = x.shape();
  Tensor out({B, C, OH, OW});
  const Scalar inv = 1.0 / static_cast<Scalar>(window_ * window_);

  const Scalar* px = x.raw();
  Scalar* po = out.raw();
  std::size_t o = 0;
  for (std::size_t bc = 0; bc < B * C; ++bc) {
    const Scalar* plane = px + bc * H * W;
    for (std::size_t oh = 0; oh < OH; ++oh) {
      for (std::size_t ow = 0; ow < OW; ++ow, ++o) {
        Scalar acc = 0;
        for (std::size_t kh = 0; kh < window_; ++kh) {
          for (std::size_t kw = 0; kw < window_; ++kw) {
            acc += plane[(oh * window_ + kh) * W + ow * window_ + kw];
          }
        }
        po[o] = acc * inv;
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  HFL_CHECK(in_shape_.size() == 4, "avgpool backward before forward");
  const std::size_t H = in_shape_[2], W = in_shape_[3];
  const std::size_t OH = H / window_, OW = W / window_;
  HFL_CHECK(grad_out.rank() == 4 && grad_out.dim(2) == OH &&
                grad_out.dim(3) == OW,
            "avgpool backward shape mismatch");
  Tensor grad_in(in_shape_);
  const Scalar inv = 1.0 / static_cast<Scalar>(window_ * window_);
  Scalar* pgi = grad_in.raw();
  const Scalar* pg = grad_out.raw();
  const std::size_t BC = in_shape_[0] * in_shape_[1];
  std::size_t o = 0;
  for (std::size_t bc = 0; bc < BC; ++bc) {
    Scalar* plane = pgi + bc * H * W;
    for (std::size_t oh = 0; oh < OH; ++oh) {
      for (std::size_t ow = 0; ow < OW; ++ow, ++o) {
        const Scalar g = pg[o] * inv;
        for (std::size_t kh = 0; kh < window_; ++kh) {
          for (std::size_t kw = 0; kw < window_; ++kw) {
            plane[(oh * window_ + kh) * W + ow * window_ + kw] += g;
          }
        }
      }
    }
  }
  return grad_in;
}

}  // namespace hfl::nn

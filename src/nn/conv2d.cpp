#include "src/nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "src/obs/registry.h"
#include "src/tensor/conv_gemm.h"
#include "src/tensor/gemm_batched.h"

namespace hfl::nn {
namespace {

// Scratch for the dX product's dcol/col2im, shared by every Conv2d on the
// thread and reused across calls. Simulation workers run on dedicated pool
// threads, so this bounds scratch memory by threads × chunk size instead of
// per-layer members that multiply with the fleet size.
thread_local Vec tl_dcol;  // gradient w.r.t. the chunk's patch block

// Upper bound on a dcol chunk so it stays cache-resident between being
// written and scattered back. A whole-minibatch dcol matrix of a realistic
// conv layer is several MB — materializing it in one piece turns col2im
// memory-bound; chunked, the block never leaves L2.
constexpr std::size_t kColChunkBytes = 1 << 20;

std::size_t samples_per_chunk(const Conv2d::Spec& s, std::size_t cols) {
  const std::size_t per_sample = s.kk() * cols * sizeof(Scalar);
  return std::max<std::size_t>(1, kColChunkBytes / std::max<std::size_t>(
                                                       1, per_sample));
}

ops::ConvShape conv_shape(const Conv2d::Spec& s, std::size_t h,
                          std::size_t w) {
  return {s.in_ch, s.out_ch, s.k, s.pad, h, w};
}

// db(oc) += Σ_c G(oc, c), sample by sample. Each channel's sum is one serial
// add chain over c, as in a per-channel loop; kChains channels' chains run
// interleaved so their adds overlap instead of each waiting on its own
// previous add. A channel's chain and its order are the same either way.
void bias_grad(const Scalar* g, std::size_t bn, std::size_t out_ch,
               std::size_t cols, Scalar* grad_bias) {
  constexpr std::size_t kChains = 8;
  for (std::size_t b = 0; b < bn; ++b, g += out_ch * cols) {
    std::size_t oc = 0;
    for (; oc + kChains <= out_ch; oc += kChains) {
      const Scalar* src = g + oc * cols;
      Scalar sum[kChains] = {};
      for (std::size_t c = 0; c < cols; ++c) {
#pragma GCC unroll 8
        for (std::size_t i = 0; i < kChains; ++i) sum[i] += src[i * cols + c];
      }
      for (std::size_t i = 0; i < kChains; ++i) grad_bias[oc + i] += sum[i];
    }
    for (; oc < out_ch; ++oc) {
      Scalar sum = 0;
      const Scalar* src = g + oc * cols;
      for (std::size_t c = 0; c < cols; ++c) sum += src[c];
      grad_bias[oc] += sum;
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel),
      pad_(padding),
      weight_({out_ch_, in_ch_, k_, k_}),
      bias_({out_ch_}),
      grad_weight_({out_ch_, in_ch_, k_, k_}),
      grad_bias_({out_ch_}) {
  HFL_CHECK(in_ch_ > 0 && out_ch_ > 0 && k_ > 0, "conv2d dims must be positive");
}

void Conv2d::init_params(Rng& rng) {
  const Scalar fan_in = static_cast<Scalar>(in_ch_ * k_ * k_);
  const Scalar stddev = std::sqrt(2.0 / fan_in);
  for (auto& v : weight_.data()) v = rng.normal(0.0, stddev);
  bias_.fill(0.0);
}

void Conv2d::forward_span(const Spec& s, std::size_t H, std::size_t W,
                          const Scalar* weight, const Scalar* bias,
                          const Scalar* x0, std::size_t bn, Scalar* out0) {
  const ops::ConvShape cs = conv_shape(s, H, W);

  if (obs::enabled()) {
    static obs::Counter& calls =
        obs::Registry::global().counter("conv.fwd_calls");
    static obs::Counter& bytes =
        obs::Registry::global().counter("conv.im2col_bytes");
    calls.add();
    // What the lowering writes: one padded plane per sample.
    bytes.add(static_cast<std::uint64_t>(bn * cs.padded_plane_size()) *
              sizeof(Scalar));
  }

  ops::conv_forward(cs, weight, bias, x0, bn, out0);
}

void Conv2d::backward_span(const Spec& s, std::size_t H, std::size_t W,
                           const Scalar* weight, const Scalar* x0,
                           std::size_t bn, const Scalar* gout0,
                           Scalar* grad_weight, Scalar* grad_bias,
                           Scalar* grad_in0) {
  const ops::ConvShape cs = conv_shape(s, H, W);
  const std::size_t OH = cs.oh(), OW = cs.ow();
  const std::size_t cols = OH * OW;
  const std::size_t kk = s.kk();

  if (obs::enabled()) {
    static obs::Counter& calls =
        obs::Registry::global().counter("conv.bwd_calls");
    static obs::Counter& bytes =
        obs::Registry::global().counter("conv.im2col_bytes");
    calls.add();
    // dW re-reads the input as padded planes, and unless dX is skipped,
    // dCol of kk × bn·cols is written for col2im.
    const std::size_t dcol = grad_in0 != nullptr ? kk * bn * cols : 0;
    bytes.add(static_cast<std::uint64_t>(bn * cs.padded_plane_size() + dcol) *
              sizeof(Scalar));
  }

  bias_grad(gout0, bn, s.out_ch, cols, grad_bias);

  // dW(oc, r) += Σ_c G(oc, c) patch(r, c) — G · patchᵀ per sample,
  // accumulated across samples and calls in sample-index order.
  ops::conv_weight_grad(cs, gout0, x0, bn, grad_weight);

  if (grad_in0 == nullptr) return;  // dX has no consumer

  const std::size_t chunk = samples_per_chunk(s, cols);
  for (std::size_t c0 = 0; c0 < bn; c0 += chunk) {
    const std::size_t cn = std::min(chunk, bn - c0);
    const Scalar* gchunk = gout0 + c0 * s.out_ch * cols;

    // dCol(r, c) = Σ_oc W(oc, r) G(oc, c) — Wᵀ · G per sample, with the
    // (transposed) weight operand shared across the chunk.
    tl_dcol.resize(kk * cn * cols);
    ops::gemm_batched(true, false, kk, cols, s.out_ch, cn, weight, kk, 0,
                      gchunk, cols, s.out_ch * cols, 0.0, tl_dcol.data(), cols,
                      kk * cols);

    // col2im: scatter-add dCol back onto the padded input geometry.
    for (std::size_t b = 0; b < cn; ++b) {
      const Scalar* dsample = tl_dcol.data() + b * kk * cols;
      Scalar* gisample = grad_in0 + (c0 + b) * s.in_ch * H * W;
      std::size_t r = 0;
      for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
        Scalar* giplane = gisample + ic * H * W;
        for (std::size_t kh = 0; kh < s.k; ++kh) {
          for (std::size_t kw = 0; kw < s.k; ++kw, ++r) {
            const Scalar* drow = dsample + r * cols;
            const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kw) -
                                         static_cast<std::ptrdiff_t>(s.pad);
            const std::size_t ow_lo =
                shift < 0 ? static_cast<std::size_t>(-shift) : 0;
            const std::size_t ow_hi = std::min(
                OW, static_cast<std::size_t>(
                        static_cast<std::ptrdiff_t>(W) - shift));
            for (std::size_t oh = 0; oh < OH; ++oh) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh + kh) -
                                        static_cast<std::ptrdiff_t>(s.pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(H)) continue;
              Scalar* xrow = giplane + ih * static_cast<std::ptrdiff_t>(W);
              const Scalar* dsrc = drow + oh * OW;
              for (std::size_t ow = ow_lo; ow < ow_hi; ++ow) {
                xrow[static_cast<std::ptrdiff_t>(ow) + shift] += dsrc[ow];
              }
            }
          }
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  HFL_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
            "conv2d forward expects NCHW with C=" + std::to_string(in_ch_) +
                ", got " + x.shape_string());
  input_ = x;
  const std::size_t B = x.dim(0), H = x.dim(2), W = x.dim(3);
  HFL_CHECK(H + 2 * pad_ >= k_ && W + 2 * pad_ >= k_,
            "conv2d kernel larger than padded input");
  const std::size_t OH = H + 2 * pad_ - k_ + 1;
  const std::size_t OW = W + 2 * pad_ - k_ + 1;

  Tensor out({B, out_ch_, OH, OW});
  forward_span(spec(), H, W, weight_.raw(), bias_.raw(), x.raw(), B,
               out.raw());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t B = input_.dim(0), H = input_.dim(2), W = input_.dim(3);
  const std::size_t OH = H + 2 * pad_ - k_ + 1;
  const std::size_t OW = W + 2 * pad_ - k_ + 1;
  HFL_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == B &&
                grad_out.dim(1) == out_ch_ && grad_out.dim(2) == OH &&
                grad_out.dim(3) == OW,
            "conv2d backward shape mismatch");

  Tensor grad_in(input_.shape());
  backward_span(spec(), H, W, weight_.raw(), input_.raw(), B, grad_out.raw(),
                grad_weight_.raw(), grad_bias_.raw(), grad_in.raw());
  return grad_in;
}

}  // namespace hfl::nn

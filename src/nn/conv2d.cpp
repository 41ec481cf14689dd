#include "src/nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/obs/registry.h"
#include "src/tensor/gemm_batched.h"
#include "src/tensor/gemm_mixed.h"

namespace hfl::nn {
namespace {

// Scratch for the im2col/col2im lowering, shared by every Conv2d on the
// thread and reused across calls. Simulation workers run on dedicated pool
// threads, so this bounds scratch memory by threads × chunk size instead of
// per-layer members that multiply with the fleet size.
thread_local Vec tl_col;   // im2col chunk, kk × chunk_cols
thread_local Vec tl_dcol;  // gradient w.r.t. the chunk's im2col block

// Upper bound on the im2col chunk so it stays cache-resident between being
// written (im2col) and consumed (GEMM). A whole-minibatch col matrix of a
// realistic conv layer is several MB — materializing it in one piece turns
// the lowering memory-bound; chunked, the col block never leaves L2.
constexpr std::size_t kColChunkBytes = 1 << 20;

std::size_t samples_per_chunk(const Conv2d::Spec& s, std::size_t cols) {
  const std::size_t per_sample = s.kk() * cols * sizeof(Scalar);
  return std::max<std::size_t>(1, kColChunkBytes / std::max<std::size_t>(
                                                       1, per_sample));
}

// im2col over the bn-sample chunk whose first (in_ch, h, w) sample starts at
// x0: col(r, c) with r indexing (ic, kh, kw) and c indexing (b, oh, ow). Feeding the GEMM a
// multi-sample chunk is what lets the blocked kernel run at panel width
// instead of B separate OH·OW-wide products; chunking (rather than the whole
// minibatch) keeps the expansion cache-resident. Every element is written —
// padding gaps are zeroed explicitly — so no full-buffer clear is needed.
void im2col(const Conv2d::Spec& s, std::size_t h, std::size_t w,
            const Scalar* x0, std::size_t bn, std::size_t oh_count,
            std::size_t ow_count, Vec& col) {
  const std::size_t cols = oh_count * ow_count;
  const std::size_t total = bn * cols;
  col.resize(s.kk() * total);
  // Loop order is (r, b), not (b, r): for a fixed col row r the per-sample
  // blocks are adjacent, so the destination streams sequentially through the
  // whole buffer instead of striding by `total` between 1 KB writes, and the
  // clip geometry below — which depends only on (kh, kw) — is computed once
  // per row instead of once per (row, sample).
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
    for (std::size_t kh = 0; kh < s.k; ++kh) {
      for (std::size_t kw = 0; kw < s.k; ++kw, ++r) {
        // In-range output ranges: iw = ow + kw − pad ∈ [0, w) and
        // ih = oh + kh − pad ∈ [0, h). Out-of-range rows/edges are zero
        // blocks, filled up front so the copy loop below is branch-free.
        const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kw) -
                                     static_cast<std::ptrdiff_t>(s.pad);
        const std::size_t ow_lo =
            shift < 0 ? static_cast<std::size_t>(-shift) : 0;
        const std::size_t ow_hi =
            std::min(ow_count, static_cast<std::size_t>(
                                   static_cast<std::ptrdiff_t>(w) - shift));
        const std::size_t oh_lo =
            std::min(oh_count, kh < s.pad ? s.pad - kh : 0);
        // max(oh_lo, …): for kh ≥ h + pad every row is out of range and
        // the two zero fills below must cover the whole block.
        const std::size_t oh_hi =
            std::max(oh_lo, h + s.pad > kh
                                ? std::min(oh_count, h + s.pad - kh)
                                : std::size_t{0});
        for (std::size_t b = 0; b < bn; ++b) {
          const Scalar* xplane = x0 + (b * s.in_ch + ic) * h * w;
          Scalar* crow = col.data() + r * total + b * cols;
          std::fill(crow, crow + oh_lo * ow_count, 0.0);
          std::fill(crow + oh_hi * ow_count, crow + oh_count * ow_count, 0.0);
          if (ow_count == w) {
            // Same-width conv (OW == W): dst and src row strides match, so
            // the whole in-range block is one contiguous copy shifted by
            // `shift`, clipped where the shift runs off the plane; the few
            // horizontal-pad columns are re-zeroed afterwards. This is the
            // layout of every stride-1 "same" conv in the models here, and
            // it replaces OH short row copies with one memcpy per (ic, kh,
            // kw, b).
            if (oh_hi > oh_lo) {
              Scalar* dblock = crow + oh_lo * ow_count;
              const std::size_t rows = oh_hi - oh_lo;
              const std::ptrdiff_t src0 =
                  static_cast<std::ptrdiff_t>((oh_lo + kh - s.pad) * w) +
                  shift;
              const std::ptrdiff_t src1 =
                  src0 + static_cast<std::ptrdiff_t>(rows * w);
              const std::ptrdiff_t lo_clip = std::max<std::ptrdiff_t>(src0, 0);
              const std::ptrdiff_t hi_clip = std::min<std::ptrdiff_t>(
                  src1, static_cast<std::ptrdiff_t>(h * w));
              Scalar* d0 = dblock + (lo_clip - src0);
              Scalar* d1 = dblock + (hi_clip - src0);
              for (Scalar* p = dblock; p < d0; ++p) *p = 0.0;
              std::memcpy(d0, xplane + lo_clip,
                          static_cast<std::size_t>(hi_clip - lo_clip) *
                              sizeof(Scalar));
              for (Scalar* p = d1; p < dblock + rows * ow_count; ++p) *p = 0.0;
              if (ow_lo > 0 || ow_hi < ow_count) {
                for (std::size_t oh = oh_lo; oh < oh_hi; ++oh) {
                  Scalar* cdst = crow + oh * ow_count;
                  for (std::size_t ow = 0; ow < ow_lo; ++ow) cdst[ow] = 0.0;
                  for (std::size_t ow = ow_hi; ow < ow_count; ++ow) {
                    cdst[ow] = 0.0;
                  }
                }
              }
            }
            continue;
          }
          for (std::size_t oh = oh_lo; oh < oh_hi; ++oh) {
            const std::size_t ih = oh + kh - s.pad;
            Scalar* cdst = crow + oh * ow_count;
            const Scalar* xrow = xplane + ih * w;
            for (std::size_t ow = 0; ow < ow_lo; ++ow) cdst[ow] = 0.0;
            for (std::size_t ow = ow_lo; ow < ow_hi; ++ow) {
              cdst[ow] = xrow[static_cast<std::ptrdiff_t>(ow) + shift];
            }
            for (std::size_t ow = ow_hi; ow < ow_count; ++ow) cdst[ow] = 0.0;
          }
        }
      }
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
                          const Scalar* x0, std::size_t bn, Scalar* out0,
                          bool mixed) {
  const std::size_t OH = H + 2 * s.pad - s.k + 1;
  const std::size_t OW = W + 2 * s.pad - s.k + 1;
  const std::size_t cols = OH * OW;
  const std::size_t kk = s.kk();
  const std::size_t chunk = samples_per_chunk(s, cols);
  const auto gemmb = mixed ? ops::gemm_batched_mixed : ops::gemm_batched;

  if (obs::enabled()) {
    static obs::Counter& calls =
        obs::Registry::global().counter("conv.fwd_calls");
    static obs::Counter& bytes =
        obs::Registry::global().counter("conv.im2col_bytes");
    calls.add();
    // One im2col expansion per forward: kk rows × bn·cols columns written.
    bytes.add(static_cast<std::uint64_t>(kk * bn * cols) * sizeof(Scalar));
  }

  for (std::size_t c0 = 0; c0 < bn; c0 += chunk) {
    const std::size_t cn = std::min(chunk, bn - c0);
    const std::size_t total = cn * cols;
    im2col(s, H, W, x0 + c0 * s.in_ch * H * W, cn, OH, OW, tl_col);

    // Each sample's output plane already has the GEMM's (oc, oh·ow) layout,
    // so the products land directly in the output tensor: pre-fill with the
    // channel bias and accumulate (beta = 1). The whole chunk is one batched
    // product — sample b's col block is the column slice at b·cols (row
    // stride `total`), and the weight operand is declared shared
    // (stride_a = 0) so its panels pack once per cache tile, not per sample.
    for (std::size_t b = 0; b < cn; ++b) {
      Scalar* oplane = out0 + (c0 + b) * s.out_ch * cols;
      for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
        std::fill(oplane + oc * cols, oplane + (oc + 1) * cols, bias[oc]);
      }
    }
    gemmb(false, false, s.out_ch, cols, kk, cn, weight, kk, 0, tl_col.data(),
          total, cols, 1.0, out0 + c0 * s.out_ch * cols, cols,
          s.out_ch * cols);
  }
}

void Conv2d::backward_span(const Spec& s, std::size_t H, std::size_t W,
                           const Scalar* weight, const Scalar* x0,
                           std::size_t bn, const Scalar* gout0,
                           Scalar* grad_weight, Scalar* grad_bias,
                           Scalar* grad_in0, bool mixed) {
  const std::size_t OH = H + 2 * s.pad - s.k + 1;
  const std::size_t OW = W + 2 * s.pad - s.k + 1;
  const std::size_t cols = OH * OW;
  const std::size_t kk = s.kk();
  const std::size_t chunk = samples_per_chunk(s, cols);
  const auto gemmb = mixed ? ops::gemm_batched_mixed : ops::gemm_batched;

  if (obs::enabled()) {
    static obs::Counter& calls =
        obs::Registry::global().counter("conv.bwd_calls");
    static obs::Counter& bytes =
        obs::Registry::global().counter("conv.im2col_bytes");
    calls.add();
    // The backward pass rebuilds the im2col chunk and, unless dX is
    // skipped, writes dCol of the same volume: kk × bn·cols scalars each.
    bytes.add(static_cast<std::uint64_t>((grad_in0 != nullptr ? 2 : 1) * kk *
                                         bn * cols) *
              sizeof(Scalar));
  }

  for (std::size_t c0 = 0; c0 < bn; c0 += chunk) {
    const std::size_t cn = std::min(chunk, bn - c0);
    const std::size_t total = cn * cols;

    // Rebuild the im2col chunk from the input (cheaper than keeping the
    // expansion live across the whole forward pass of a deep model).
    im2col(s, H, W, x0 + c0 * s.in_ch * H * W, cn, OH, OW, tl_col);

    const Scalar* gchunk = gout0 + c0 * s.out_ch * cols;

    // db += per-plane sums, walked in (sample, channel) order.
    for (std::size_t b = 0; b < cn; ++b) {
      const Scalar* g = gchunk + b * s.out_ch * cols;
      for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
        Scalar gb = 0;
        const Scalar* src = g + oc * cols;
        for (std::size_t c = 0; c < cols; ++c) gb += src[c];
        grad_bias[oc] += gb;
      }
    }

    // dW(oc, r) += Σ_c G(oc, c) col(r, c) — G · colᵀ per sample, accumulated
    // across samples/chunks/calls. stride_c = 0 declares the shared
    // accumulator: items apply in sample-index order, matching the former
    // per-sample beta=1 loop bit for bit.
    gemmb(false, true, s.out_ch, kk, cols, cn, gchunk, cols, s.out_ch * cols,
          tl_col.data(), total, cols, 1.0, grad_weight, kk, 0);

    if (grad_in0 == nullptr) continue;  // dX has no consumer

    // dCol(r, c) = Σ_oc W(oc, r) G(oc, c) — Wᵀ · G per sample, with the
    // (transposed) weight operand shared across the chunk.
    tl_dcol.resize(kk * cn * cols);
    gemmb(true, false, kk, cols, s.out_ch, cn, weight, kk, 0, gchunk, cols,
          s.out_ch * cols, 0.0, tl_dcol.data(), cols, kk * cols);

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
               out.raw(), /*mixed=*/false);
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
                grad_weight_.raw(), grad_bias_.raw(), grad_in.raw(),
                /*mixed=*/false);
  return grad_in;
}

}  // namespace hfl::nn

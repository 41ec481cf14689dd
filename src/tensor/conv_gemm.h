// Implicit-GEMM lowering of stride-1, zero-padded 2-D convolutions (FP64).
//
// Per sample, a convolution is the product
//   out(oc, c) = Σ_r W(oc, r) · patch(r, c),   r = (ic, kh, kw), c = (oh, ow)
// against the (out_ch × in_ch·k²) weight matrix, and its weight gradient is
//   dW(oc, r) += Σ_c G(oc, c) · patch(r, c).
// The patch matrix (im2col) is never built. Each sample is copied once into
// a zero-padded plane of (in_ch, h+2p, w+2p) scalars — or read in place when
// p = 0 — and patch(r, (oh, ow)) is plane[off[r] + oh·wp + ow] with
// off[r] = ic·hp·wp + kh·wp + kw. So for one output row, patch row r is the
// contiguous window at plane + oh·wp + off[r]: the forward runs the GEMM's
// register-tile kernel over out_ch × OW tiles with its B rows addressed
// through the offset table (detail::OffsetB), and the weight gradient packs
// its Bᵀ panels straight from the plane through the offset table and a
// per-pixel table (pix[c] = oh·wp + ow).
//
// FP contract: bit-identical to ops::gemm_batched over an explicit im2col
// matrix: every output element is
// the GEMM contract's FMA chain per 256-deep k panel, in k order, starting
// from +0, added to C panel by panel (src/tensor/gemm_detail.h), and
// padding reads +0.0 exactly as explicit zeros would. Asserted by
// tests/conv_lowering_test.cpp.
//
// Scratch (padded plane, tables, packed panels) is thread-local and reused
// across calls.
#pragma once

#include <cstddef>

#include "src/common/types.h"

namespace hfl::ops {

// Geometry of one stride-1 convolution: `in_ch` (h × w) input planes,
// `out_ch` output planes, a k × k kernel and `pad` zeros on every side.
struct ConvShape {
  std::size_t in_ch = 0, out_ch = 0, k = 0, pad = 0, h = 0, w = 0;
  std::size_t kk() const { return in_ch * k * k; }
  std::size_t hp() const { return h + 2 * pad; }  // padded plane height
  std::size_t wp() const { return w + 2 * pad; }  // padded plane width
  std::size_t oh() const { return hp() - k + 1; }
  std::size_t ow() const { return wp() - k + 1; }
  // Scalars of one sample's zero-padded input plane; 0 when pad == 0,
  // because the input is then read in place.
  std::size_t padded_plane_size() const {
    return pad == 0 ? 0 : in_ch * hp() * wp();
  }
};

// For each of `bn` consecutive (in_ch, h, w) samples at x0: fills the
// sample's (out_ch, oh·ow) plane at out0 + b·out_ch·oh·ow with the channel
// bias, then adds W·patch panel by panel. `weight` is (out_ch, kk)
// row-major, shared by every sample.
void conv_forward(const ConvShape& s, const Scalar* weight, const Scalar* bias,
                  const Scalar* x0, std::size_t bn, Scalar* out0);

// dW += G_b · patch_bᵀ for b = 0 … bn−1, samples applied in index order.
// `gout0` holds the samples' (out_ch, oh·ow) upstream-gradient planes
// back to back; `grad_weight` is (out_ch, kk) row-major.
void conv_weight_grad(const ConvShape& s, const Scalar* gout0,
                      const Scalar* x0, std::size_t bn, Scalar* grad_weight);

}  // namespace hfl::ops

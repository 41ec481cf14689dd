#include "src/tensor/conv_gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/tensor/gemm_detail.h"

namespace hfl::ops {
namespace {

using namespace detail;

thread_local std::vector<Scalar> tl_plane;     // one sample's padded plane
thread_local std::vector<std::size_t> tl_off;  // B row r → plane offset
thread_local std::vector<std::size_t> tl_pix;  // pixel c → plane offset
thread_local std::vector<Scalar> tl_a;         // packed A panels
thread_local std::vector<Scalar> tl_b;         // packed Bᵀ panel (dW)
thread_local std::vector<Scalar> tl_wide;      // wide-mode output rows

// The sample at x as a zero-padded plane: x itself when pad == 0, else a
// copy into tl_plane with every pad element written as +0.0 (one pass, no
// separate clear).
const Scalar* padded_plane(const ConvShape& s, const Scalar* x) {
  if (s.pad == 0) return x;
  const std::size_t band = s.pad * s.wp();  // top or bottom pad rows
  tl_plane.resize(s.padded_plane_size());
  Scalar* dst = tl_plane.data();
  for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
    dst = std::fill_n(dst, band, 0.0);
    for (std::size_t ih = 0; ih < s.h; ++ih) {
      dst = std::fill_n(dst, s.pad, 0.0);
      std::memcpy(dst, x, s.w * sizeof(Scalar));
      dst = std::fill_n(dst + s.w, s.pad, 0.0);
      x += s.w;
    }
    dst = std::fill_n(dst, band, 0.0);
  }
  return tl_plane.data();
}

// off[r] for r = (ic, kh, kw): where patch row r starts in the plane,
// relative to the output row's origin.
void row_offsets(const ConvShape& s) {
  const std::size_t hp = s.hp(), wp = s.wp();
  tl_off.resize(s.kk());
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
    for (std::size_t kh = 0; kh < s.k; ++kh) {
      for (std::size_t kw = 0; kw < s.k; ++kw) {
        tl_off[r++] = ic * hp * wp + kh * wp + kw;
      }
    }
  }
}

std::size_t tiles(std::size_t n) { return (n + kNR - 1) / kNR; }

void fill_bias(const Scalar* bias, std::size_t m, std::size_t n, Scalar* c) {
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(c + i * n, c + (i + 1) * n, bias[i]);
  }
}

// C(m × n, ldc) += W·B, panel by panel, where B row r is the n contiguous
// values at origin + off[r] and tl_a holds W's packed KC panels: the
// register-tile kernel over m × kNR tiles, its B rows found through the
// offset table.
void offset_product(std::size_t m, std::size_t kk, const Scalar* origin,
                    std::size_t n, Scalar* c, std::size_t ldc) {
  const Scalar* ap_panel = tl_a.data();
  for (std::size_t pc = 0; pc < kk; pc += kKC) {
    const std::size_t kc = std::min(kKC, kk - pc);
    for (std::size_t jr = 0; jr < n; jr += kNR) {
      const std::size_t nr = std::min(kNR, n - jr);
      const OffsetB brows{origin + jr, tl_off.data() + pc};
      for (std::size_t ir = 0; ir < m; ir += kMR) {
        const std::size_t mr = std::min(kMR, m - ir);
        const std::size_t width = strip_width(mr);
        const Scalar* ap = ap_panel + (ir / kMR) * kc * kMR;
        Scalar* ctile = c + ir * ldc + jr;
        if (nr < kNR) {
          run_tile<true>(width, kc, ap, brows, ctile, ldc, mr, nr);
        } else {
          run_tile<false>(width, kc, ap, brows, ctile, ldc, mr, nr);
        }
      }
    }
    ap_panel += packed_a_size(m, kc);
  }
}

// Runs of the Bᵀ panel's columns for conv_weight_grad. Column j of op(B) =
// patchᵀ is patch row j, so at pixel p it holds plane[off[j] + pix[p]].
// Columns whose offsets step by one (consecutive kw of one (ic, kh)) hold
// consecutive plane elements at every pixel, so a run of up to kLanes such
// columns within one kNR strip moves as one masked vector copy.
struct ColumnRun {
  std::size_t j;    // first column, relative to its strip
  std::size_t off;  // off[] of that column
  simd::Mask mask;  // the run's length as a lane mask
};
thread_local std::vector<ColumnRun> tl_runs;
thread_local std::vector<std::size_t> tl_strip_runs;  // strip → first run

// Splits every kNR strip of [0, kk) into runs (tl_runs), strip t's runs at
// [tl_strip_runs[t], tl_strip_runs[t + 1]). kNC is a whole number of
// strips, so these are also the strips of every kNC block.
void column_runs(std::size_t kk) {
  static_assert(kNC % kNR == 0, "a kNC block is whole strips");
  tl_runs.clear();
  tl_strip_runs.clear();
  for (std::size_t t = 0; t < kk; t += kNR) {
    tl_strip_runs.push_back(tl_runs.size());
    const std::size_t nr = std::min(kNR, kk - t);
    for (std::size_t j = 0; j < nr;) {
      const std::size_t o = tl_off[t + j];
      std::size_t len = 1;
      while (j + len < nr && len < simd::kLanes &&
             tl_off[t + j + len] == o + len) {
        ++len;
      }
      tl_runs.push_back({j, o, simd::mask_below(len)});
      j += len;
    }
  }
  tl_strip_runs.push_back(tl_runs.size());
}

// pack_b_with's layout (kNR-column strips, row-major within a strip, a
// ragged final strip's spare columns zero) for the kc×nc block of patchᵀ
// at (p0, j0), copied run by run from the plane.
void pack_patch_t(const Scalar* plane, std::size_t p0, std::size_t j0,
                  std::size_t kc, std::size_t nc, Scalar* dst) {
  for (std::size_t t = 0; t < nc; t += kNR) {
    if (nc - t < kNR) std::fill(dst, dst + kNR * kc, 0.0);
    const std::size_t strip = (j0 + t) / kNR;
    const ColumnRun* first = tl_runs.data() + tl_strip_runs[strip];
    const ColumnRun* last = tl_runs.data() + tl_strip_runs[strip + 1];
    for (std::size_t p = 0; p < kc; ++p) {
      const Scalar* src = plane + tl_pix[p0 + p];
      Scalar* row = dst + p * kNR;
      for (const ColumnRun* r = first; r != last; ++r) {
        simd::store_masked(row + r->j, r->mask,
                           simd::load_masked(src + r->off, r->mask));
      }
    }
    dst += kNR * kc;
  }
}

}  // namespace

void conv_forward(const ConvShape& s, const Scalar* weight, const Scalar* bias,
                  const Scalar* x0, std::size_t bn, Scalar* out0) {
  const std::size_t m = s.out_ch, kk = s.kk();
  const std::size_t OH = s.oh(), OW = s.ow(), cols = OH * OW;
  const std::size_t wp = s.wp();
  if (bn == 0 || m == 0 || cols == 0) return;
  record_batched(m, cols, kk, bn);
  row_offsets(s);

  // The weight operand is shared by every sample and every output row:
  // pack all of its KC panels (all m rows each) once.
  std::size_t a_elems = 0;
  for (std::size_t pc = 0; pc < kk; pc += kKC) {
    a_elems += packed_a_size(m, std::min(kKC, kk - pc));
  }
  tl_a.resize(a_elems);
  for (std::size_t pc = 0, off = 0; pc < kk; pc += kKC) {
    const std::size_t kc = std::min(kKC, kk - pc);
    pack_a(weight, kk, false, 0, pc, m, kc, tl_a.data() + off);
    off += packed_a_size(m, kc);
  }

  // Two ways to lay output pixels on tile columns, same bits either way:
  //   by row  each output row is its own run of OW columns, the tile
  //           landing straight in the output plane;
  //   wide    one run over the padded width, column oh·wp + ow, computing
  //           k−1 throwaway columns per row into scratch, then copying the
  //           OW real ones out. Worth it when OW leaves most of a tile's
  //           lanes idle (an 8-wide plane on a 16-lane tile).
  // Pick whichever computes fewer tile columns.
  const std::size_t n_wide = (OH - 1) * wp + OW;
  const bool wide = tiles(n_wide) < OH * tiles(OW);
  if (wide) tl_wide.resize(m * n_wide);

  for (std::size_t b = 0; b < bn; ++b) {
    const Scalar* plane = padded_plane(s, x0 + b * s.in_ch * s.h * s.w);
    Scalar* out = out0 + b * m * cols;
    if (!wide) {
      fill_bias(bias, m, cols, out);
      for (std::size_t oh = 0; oh < OH; ++oh) {
        offset_product(m, kk, plane + oh * wp, OW, out + oh * OW, cols);
      }
      continue;
    }
    fill_bias(bias, m, n_wide, tl_wide.data());
    offset_product(m, kk, plane, n_wide, tl_wide.data(), n_wide);
    for (std::size_t oc = 0; oc < m; ++oc) {
      for (std::size_t oh = 0; oh < OH; ++oh) {
        std::memcpy(out + oc * cols + oh * OW,
                    tl_wide.data() + oc * n_wide + oh * wp,
                    OW * sizeof(Scalar));
      }
    }
  }
}

void conv_weight_grad(const ConvShape& s, const Scalar* gout0,
                      const Scalar* x0, std::size_t bn, Scalar* grad_weight) {
  const std::size_t m = s.out_ch, kk = s.kk();
  const std::size_t OH = s.oh(), OW = s.ow(), cols = OH * OW;
  const std::size_t wp = s.wp();
  if (bn == 0 || m == 0 || cols == 0) return;
  record_batched(m, kk, cols, bn);
  row_offsets(s);
  column_runs(kk);
  tl_pix.resize(cols);
  for (std::size_t oh = 0, c = 0; oh < OH; ++oh) {
    for (std::size_t ow = 0; ow < OW; ++ow) tl_pix[c++] = oh * wp + ow;
  }
  // Scratch sized to this product's panels, not to the cache-tile maxima.
  tl_a.resize(packed_a_size(std::min(kMC, m), std::min(kKC, cols)));
  tl_b.resize(std::min(kKC, cols) * tiles(std::min(kNC, kk)) * kNR);

  // Per sample, gemm_single's nest for dW += G·patchᵀ (m × kk, depth cols),
  // its Bᵀ panels packed from the sample's plane.
  for (std::size_t b = 0; b < bn; ++b) {
    const Scalar* plane = padded_plane(s, x0 + b * s.in_ch * s.h * s.w);
    const Scalar* g = gout0 + b * m * cols;
    for (std::size_t jc = 0; jc < kk; jc += kNC) {
      const std::size_t nc = std::min(kNC, kk - jc);
      for (std::size_t pc = 0; pc < cols; pc += kKC) {
        const std::size_t kc = std::min(kKC, cols - pc);
        pack_patch_t(plane, pc, jc, kc, nc, tl_b.data());
        for (std::size_t ic = 0; ic < m; ic += kMC) {
          const std::size_t mc = std::min(kMC, m - ic);
          pack_a(g, cols, false, ic, pc, mc, kc, tl_a.data());
          macro_kernel(kc, nc, mc, tl_a.data(), tl_b.data(), false, nullptr,
                       0, grad_weight + ic * kk + jc, kk);
        }
      }
    }
  }
}

}  // namespace hfl::ops

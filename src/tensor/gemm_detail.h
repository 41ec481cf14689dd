// Internal building blocks of the blocked GEMM (gemm.cpp), shared with the
// strided-batch driver (gemm_batched.cpp) and the implicit-GEMM
// convolutions (conv_gemm.cpp).
//
// Everything here — tile constants, packing routines, the register-tile
// kernel and the un-instrumented single-product loop nest — is shared by
// every FP64 entry point, so ops::gemm, the row-gathered variants and
// ops::gemm_batched run the same kernel over the same packed panels.
//
// FP contract: for each KC panel of k, every C element is computed as one
// FMA chain `acc = +0; acc = fma(a_p, b_p, acc)` in k order (multiply then
// add on builds without FMA), and the panel's acc is then added to C. Tile
// shape, MC/NC blocking, strip partition, packing and the direct-B shortcut
// change only which lanes compute a chain, never the chain, so every ISA's
// tile and every entry point produce the same bits. kKC is therefore part
// of the contract; kMR, kNR and kMC are not. Asserted by
// tests/gemm_contract_test.
//
// Not part of the public tensor API; include only from src/tensor/*.cpp and
// matching tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/types.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define HFL_GEMM_AVX2 1
#endif

namespace hfl::ops::detail {

// Vector shim for the register-tile kernel: one register of kLanes doubles,
// a lane mask, and the handful of operations the kernel needs. The ISA comes
// from the compiler's target flags (-march=native by default):
//   AVX-512F   8×16 tile of zmm: 16 accumulators + 2 B vectors + 1 broadcast
//              of the 32 zmm registers; ragged lanes use mask registers.
//   AVX2+FMA   6×8 tile of ymm: 12 accumulators + 2 B + 1 broadcast fill the
//              16 ymm registers; ragged lanes use vmaskmov.
//   portable   4×4 tile of scalars: its 16 accumulators plus the B row and
//              a broadcast stay in the 16 SSE2 registers once the compiler
//              pairs lanes (a 4×8 tile's 32 accumulators spilled to the
//              stack every k-step).
// kMC keeps the A panel (~128 KB) a whole number of strips.
#if defined(HFL_GEMM_AVX2) && defined(__AVX512F__)
namespace simd {
using V = __m512d;
using Mask = __mmask8;
constexpr std::size_t kLanes = 8;
inline Mask mask_below(std::size_t n) {
  return static_cast<Mask>((1u << std::min(n, kLanes)) - 1);
}
inline V load(const Scalar* p) { return _mm512_loadu_pd(p); }
inline V load_masked(const Scalar* p, Mask m) {
  return _mm512_maskz_loadu_pd(m, p);
}
inline V broadcast(const Scalar* p) { return _mm512_set1_pd(*p); }
inline V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
inline V add(V a, V b) { return _mm512_add_pd(a, b); }
inline void store(Scalar* p, V v) { _mm512_storeu_pd(p, v); }
inline void store_masked(Scalar* p, Mask m, V v) {
  _mm512_mask_storeu_pd(p, m, v);
}
inline void prefetch(const Scalar* p) {
  _mm_prefetch(reinterpret_cast<const char*>(p), _MM_HINT_T0);
}
}  // namespace simd
constexpr std::size_t kMR = 8;
constexpr std::size_t kNR = 16;
constexpr std::size_t kMC = 64;
#elif defined(HFL_GEMM_AVX2)
namespace simd {
using V = __m256d;
using Mask = __m256i;
constexpr std::size_t kLanes = 4;
inline Mask mask_below(std::size_t n) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(std::min(n, kLanes))),
      _mm256_setr_epi64x(0, 1, 2, 3));
}
inline V load(const Scalar* p) { return _mm256_loadu_pd(p); }
inline V load_masked(const Scalar* p, Mask m) {
  return _mm256_maskload_pd(p, m);
}
inline V broadcast(const Scalar* p) { return _mm256_broadcast_sd(p); }
inline V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
inline V add(V a, V b) { return _mm256_add_pd(a, b); }
inline void store(Scalar* p, V v) { _mm256_storeu_pd(p, v); }
inline void store_masked(Scalar* p, Mask m, V v) {
  _mm256_maskstore_pd(p, m, v);
}
inline void prefetch(const Scalar* p) {
  _mm_prefetch(reinterpret_cast<const char*>(p), _MM_HINT_T0);
}
}  // namespace simd
constexpr std::size_t kMR = 6;
constexpr std::size_t kNR = 8;
constexpr std::size_t kMC = 66;
#else
namespace simd {
using V = Scalar;
using Mask = bool;
constexpr std::size_t kLanes = 1;
inline Mask mask_below(std::size_t n) { return n > 0; }
inline V load(const Scalar* p) { return *p; }
inline V load_masked(const Scalar* p, Mask m) { return m ? *p : 0.0; }
inline V broadcast(const Scalar* p) { return *p; }
inline V fma(V a, V b, V c) { return a * b + c; }
inline V add(V a, V b) { return a + b; }
inline void store(Scalar* p, V v) { *p = v; }
inline void store_masked(Scalar* p, Mask m, V v) {
  if (m) *p = v;
}
inline void prefetch(const Scalar*) {}
}  // namespace simd
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 4;
constexpr std::size_t kMC = 64;
#endif

// Cache tiles: each KC×NR packed B strip stays L1-resident across a full
// sweep of the MC×KC packed A panel (L2), and the KC×NC packed B panel
// (~2 MB) targets L3.
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 1024;
static_assert(kMC % kMR == 0, "an MC block is whole strips");

// Largest m for which untransposed B is streamed directly instead of packed:
// below this the packed panel would be reused too few times (m/kMR A-strip
// sweeps) to pay for the packing pass. Conv-lowered products (m = out_ch on
// the forward path) take this route.
constexpr std::size_t kDirectBMaxM = 32;

// A short final A strip (≤ kNarrowMR live rows) is packed and computed 4
// rows wide instead of padding to kMR and wasting up to half the strip's
// FLOPs; this matters for products with a small m that is not a multiple of
// kMR. On the portable tile (kMR == 4) every strip is full width.
constexpr std::size_t kNarrowMR = 4;

inline std::size_t strip_width(std::size_t mr) {
  return mr <= kNarrowMR ? kNarrowMR : kMR;
}

inline Scalar elem(const Scalar* x, std::size_t ld, bool trans, std::size_t row,
                   std::size_t col) {
  return trans ? x[col * ld + row] : x[row * ld + col];
}

// Packs the mc×kc block of op(A) at (i0, p0), read through at(i, p), into
// strips of kMR rows (the final one strip_width(mr) wide), column-major
// within each strip, so the kernel reads one strip's worth of contiguous
// values per k-step. Ragged strips are zero-padded (one fill up front, not a
// short fill per k-step): the kernel then always computes a full strip and
// only the store is bounds-checked.
template <class At>
inline void pack_a_with(At at, std::size_t i0, std::size_t p0, std::size_t mc,
                        std::size_t kc, Scalar* dst) {
  for (std::size_t s = 0; s < mc; s += kMR) {
    const std::size_t mr = std::min(kMR, mc - s);
    const std::size_t width = strip_width(mr);
    if (mr < width) std::fill(dst, dst + width * kc, 0.0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        dst[p * width + i] = at(i0 + s + i, p0 + p);
      }
    }
    dst += width * kc;
  }
}

inline void pack_a(const Scalar* a, std::size_t lda, bool trans, std::size_t i0,
                   std::size_t p0, std::size_t mc, std::size_t kc, Scalar* dst) {
  pack_a_with([=](std::size_t i, std::size_t p) {
    return elem(a, lda, trans, i, p);
  }, i0, p0, mc, kc, dst);
}

// pack_a over a row-gathered matrix: row i of the (untransposed) m×k operand
// lives at rows[i], k contiguous scalars, with no relation between rows. The
// panel is byte-identical to packing a contiguous copy of the same rows, so
// row gather is invisible to everything downstream of packing.
inline void pack_a_rows(const Scalar* const* rows, std::size_t i0,
                        std::size_t p0, std::size_t mc, std::size_t kc,
                        Scalar* dst) {
  pack_a_with([=](std::size_t i, std::size_t p) { return rows[i][p]; }, i0,
              p0, mc, kc, dst);
}

// Number of scalars pack_a emits for an mc×kc block (narrow final strips
// included). The batched driver uses this to lay consecutive MC blocks of a
// shared A panel into one buffer.
inline std::size_t packed_a_size(std::size_t mc, std::size_t kc) {
  std::size_t total = 0;
  for (std::size_t s = 0; s < mc; s += kMR) {
    total += strip_width(std::min(kMR, mc - s)) * kc;
  }
  return total;
}

// Packs the kc×nc block of op(B) at (p0, j0), read through at(p, j), into
// strips of kNR columns, row-major within each strip (kNR contiguous values
// per k-step); a ragged final strip is zero-filled up front.
template <class At>
inline void pack_b_with(At at, std::size_t p0, std::size_t j0, std::size_t kc,
                        std::size_t nc, Scalar* dst) {
  for (std::size_t t = 0; t < nc; t += kNR) {
    const std::size_t nr = std::min(kNR, nc - t);
    if (nr < kNR) std::fill(dst, dst + kNR * kc, 0.0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < nr; ++j) {
        dst[p * kNR + j] = at(p0 + p, j0 + t + j);
      }
    }
    dst += kNR * kc;
  }
}

inline void pack_b(const Scalar* b, std::size_t ldb, bool trans, std::size_t p0,
                   std::size_t j0, std::size_t kc, std::size_t nc, Scalar* dst) {
  pack_b_with([=](std::size_t p, std::size_t j) {
    return elem(b, ldb, trans, p, j);
  }, p0, j0, kc, nc, dst);
}

// pack_b over a row-gathered matrix: row p of the (untransposed) k×n operand
// lives at rows[p]. Same strip layout and padding as pack_b.
inline void pack_b_rows(const Scalar* const* rows, std::size_t p0,
                        std::size_t j0, std::size_t kc, std::size_t nc,
                        Scalar* dst) {
  pack_b_with([=](std::size_t p, std::size_t j) { return rows[p][j]; }, p0,
              j0, kc, nc, dst);
}

// How the kernel finds row p of its kc×kNR B slice. Each row presents kNR
// (kNR-aligned strip) or nr (ragged tile, read through the lane mask)
// contiguous values.
//   StridedB  row p at b + p·stride: a packed strip (stride kNR) or a direct
//             view into a row-major source matrix (stride ldb).
//   OffsetB   row p at base + off[p]: the implicit-GEMM convolution, whose
//             B row r = (ic, kh, kw) is a shifted window of a zero-padded
//             input plane (src/tensor/conv_gemm.cpp).
// The policy decides only where a B value is loaded from, never which value
// or in what order it is accumulated.
struct StridedB {
  const Scalar* b;
  std::size_t stride;
  const Scalar* row(std::size_t p) const { return b + p * stride; }
  // Pulls the row a few k-steps ahead into L1: on the direct-B path the
  // rows are ldb apart (a strided stream the hardware prefetcher loses at
  // page boundaries); on the packed path this just runs ahead in the strip.
  void prefetch(std::size_t p) const { simd::prefetch(row(p + 8)); }
};

struct OffsetB {
  const Scalar* base;
  const std::size_t* off;
  const Scalar* row(std::size_t p) const { return base + off[p]; }
  // The padded planes are a few KB to a few tens of KB, already cache-hot.
  void prefetch(std::size_t) const {}
};

// C[0..mr)×[0..nr) += Aᵖ·B over kc steps, on a Rows×kNR register tile.
// `ap` is a packed A strip Rows wide; `b` locates each k-step's B row (see
// StridedB / OffsetB). Tail marks a ragged-right tile (nr < kNR) whose B
// rows are not zero-padded strips, so they are read through the lane mask
// because a full load could run past the allocation; packed strips are
// zero-padded and load whole. C is updated through the mask whenever
// nr < kNR.
template <int Rows, bool Tail, class BRows>
inline void micro_kernel(std::size_t kc, const Scalar* ap, BRows b, Scalar* c,
                         std::size_t ldc, std::size_t mr, std::size_t nr) {
  constexpr std::size_t kVecs = kNR / simd::kLanes;
  simd::Mask mask[kVecs];
  for (std::size_t v = 0; v < kVecs; ++v) {
    mask[v] = simd::mask_below(nr - std::min(nr, v * simd::kLanes));
  }
  // Every loop over acc unrolls completely (the pragmas below), so acc lives
  // in registers: an array still indexed by a loop variable stays in memory.
  simd::V acc[Rows][kVecs] = {};
  // Two k-steps per iteration: at conv-sized kc (100–250) the loop-carried
  // overhead is a measurable slice of the kernel, and the second step's B
  // loads issue while the first step's FMA chain drains.
#pragma GCC unroll 2
  for (std::size_t p = 0; p < kc; ++p) {
    b.prefetch(p);
    const Scalar* brow = b.row(p);
    simd::V bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = Tail ? simd::load_masked(brow + v * simd::kLanes, mask[v])
                   : simd::load(brow + v * simd::kLanes);
    }
    const Scalar* arow = ap + p * Rows;
    for (int i = 0; i < Rows; ++i) {
      const simd::V av = simd::broadcast(arow + i);
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[i][v] = simd::fma(av, bv[v], acc[i][v]);
      }
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < Rows; ++i) {
    if (static_cast<std::size_t>(i) >= mr) continue;
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kVecs; ++v) {
      Scalar* cv = c + i * ldc + v * simd::kLanes;
      if (nr == kNR) {
        simd::store(cv, simd::add(simd::load(cv), acc[i][v]));
      } else {
        simd::store_masked(
            cv, mask[v],
            simd::add(simd::load_masked(cv, mask[v]), acc[i][v]));
      }
    }
  }
}

// One register tile: `width` (kMR or kNarrowMR, from strip_width) picks the
// instantiation.
template <bool Tail, class BRows>
inline void run_tile(std::size_t width, std::size_t kc, const Scalar* ap,
                     BRows b, Scalar* c, std::size_t ldc, std::size_t mr,
                     std::size_t nr) {
  if (width == kMR) {
    micro_kernel<kMR, Tail>(kc, ap, b, c, ldc, mr, nr);
  } else {
    micro_kernel<kNarrowMR, Tail>(kc, ap, b, c, ldc, mr, nr);
  }
}

// Runs the macro-kernel over one packed A block: every KC×NR strip of B (or
// the corresponding direct-B slice) sweeps the block's A strips. Shared by
// gemm_single below and gemm_batched.
inline void macro_kernel(std::size_t kc, std::size_t nc, std::size_t mc,
                         const Scalar* ap_block, const Scalar* b_packed,
                         bool direct_b, const Scalar* bdir_base,
                         std::size_t ldb, Scalar* c_block, std::size_t ldc) {
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t nr = std::min(kNR, nc - jr);
    const StridedB b =
        direct_b ? StridedB{bdir_base + jr, ldb}
                 : StridedB{b_packed + (jr / kNR) * kc * kNR, kNR};
    for (std::size_t ir = 0; ir < mc; ir += kMR) {
      const std::size_t mr = std::min(kMR, mc - ir);
      // Only the final strip can be narrow, so the full-width offset formula
      // still locates it.
      const std::size_t width = strip_width(mr);
      const Scalar* ap = ap_block + (ir / kMR) * kc * kMR;
      Scalar* ctile = c_block + ir * ldc + jr;
      if (direct_b && nr < kNR) {
        run_tile<true>(width, kc, ap, b, ctile, ldc, mr, nr);
      } else {
        run_tile<false>(width, kc, ap, b, ctile, ldc, mr, nr);
      }
    }
  }
}

// Bumps the batched-product telemetry (gemm.batched_calls / _flops / _bytes
// / _items) for `items` m×n×k products; defined in gemm_batched.cpp and
// shared with the implicit-GEMM convolutions (conv_gemm.cpp), which count
// the logical products they compute.
void record_batched(std::size_t m, std::size_t n, std::size_t k,
                    std::size_t items);

// Scales C by beta (beta == 0 overwrites, so C may be uninitialized).
inline void fold_beta(Scalar beta, std::size_t m, std::size_t n, Scalar* c,
                      std::size_t ldc) {
  if (beta == 0.0) {
    for (std::size_t i = 0; i < m; ++i) {
      std::fill(c + i * ldc, c + i * ldc + n, 0.0);
    }
  } else if (beta != 1.0) {
    for (std::size_t i = 0; i < m; ++i) {
      Scalar* crow = c + i * ldc;
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// One full product, no telemetry: the exact loop nest ops::gemm runs. The
// batched driver calls this per item when it cannot amortize anything
// (shared-C accumulation), keeping its results bit-identical by definition.
inline void gemm_single(bool trans_a, bool trans_b, std::size_t m,
                        std::size_t n, std::size_t k, const Scalar* a,
                        std::size_t lda, const Scalar* b, std::size_t ldb,
                        Scalar beta, Scalar* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;

  // Fold beta in up front; every panel pass below accumulates into C.
  fold_beta(beta, m, n, c, ldc);
  if (k == 0) return;

  // Packed-panel scratch, reused across calls (and across the layers of a
  // model — each simulation worker thread owns one pair).
  thread_local std::vector<Scalar> a_packed;
  thread_local std::vector<Scalar> b_packed;
  const bool direct_b = !trans_b && m <= kDirectBMaxM;
  a_packed.resize(kMC * kKC);
  if (!direct_b) b_packed.resize(kKC * kNC);

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      if (!direct_b) pack_b(b, ldb, trans_b, pc, jc, kc, nc, b_packed.data());
      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        pack_a(a, lda, trans_a, ic, pc, mc, kc, a_packed.data());
        // Macro-kernel: each KC×NR B strip stays hot while every A strip of
        // the panel streams past it.
        macro_kernel(kc, nc, mc, a_packed.data(), b_packed.data(), direct_b,
                     b + pc * ldb + jc, ldb, c + ic * ldc + jc, ldc);
      }
    }
  }
}

// gemm_single with either operand optionally row-gathered: when a_rows is
// non-null, op(A) is untransposed and row i lives at a_rows[i] (k contiguous
// scalars); when b_rows is non-null, op(B) is untransposed and row p lives at
// b_rows[p]. Bit-identity with gemm_single on a contiguous copy of the same
// rows holds by construction: pack_a_rows/pack_b_rows emit byte-identical
// panels, and the loop nest, kernel dispatch, and (jr, ir) order below are
// the same code. The only divergence is that a gathered B disables the
// direct-B shortcut (there is no single base pointer to stream from) — also
// results-invariant, because the packed and direct paths feed the same
// per-lane FMA sequence and differ only in how B reaches the registers.
inline void gemm_gather(bool trans_a, bool trans_b, std::size_t m,
                        std::size_t n, std::size_t k, const Scalar* a,
                        const Scalar* const* a_rows, std::size_t lda,
                        const Scalar* b, const Scalar* const* b_rows,
                        std::size_t ldb, Scalar beta, Scalar* c,
                        std::size_t ldc) {
  if (m == 0 || n == 0) return;

  fold_beta(beta, m, n, c, ldc);
  if (k == 0) return;

  thread_local std::vector<Scalar> a_packed;
  thread_local std::vector<Scalar> b_packed;
  const bool direct_b = !trans_b && m <= kDirectBMaxM && b_rows == nullptr;
  a_packed.resize(kMC * kKC);
  if (!direct_b) b_packed.resize(kKC * kNC);

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      if (!direct_b) {
        if (b_rows != nullptr) {
          pack_b_rows(b_rows, pc, jc, kc, nc, b_packed.data());
        } else {
          pack_b(b, ldb, trans_b, pc, jc, kc, nc, b_packed.data());
        }
      }
      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        if (a_rows != nullptr) {
          pack_a_rows(a_rows, ic, pc, mc, kc, a_packed.data());
        } else {
          pack_a(a, lda, trans_a, ic, pc, mc, kc, a_packed.data());
        }
        macro_kernel(kc, nc, mc, a_packed.data(), b_packed.data(), direct_b,
                     direct_b ? b + pc * ldb + jc : nullptr, ldb,
                     c + ic * ldc + jc, ldc);
      }
    }
  }
}

}  // namespace hfl::ops::detail

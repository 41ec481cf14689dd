#include "src/tensor/gemm_batched.h"

#include <vector>

#include "src/obs/registry.h"
#include "src/tensor/gemm_detail.h"

namespace hfl::ops {
namespace {

using namespace detail;

// Shared-A packing is only worth caching while the whole packed k-panel of
// op(A) (every MC block of one KC slice) fits comfortably in scratch; beyond
// this the driver just repacks per item, which is always correct. Weight
// operands — the shared case that matters — are far below the cap.
constexpr std::size_t kSharedAMaxElems = 1 << 20;  // 8 MB of doubles

}  // namespace

namespace detail {

void record_batched(std::size_t m, std::size_t n, std::size_t k,
                    std::size_t items) {
  if (!obs::enabled()) return;
  static obs::Counter& calls =
      obs::Registry::global().counter("gemm.batched_calls");
  static obs::Counter& flops =
      obs::Registry::global().counter("gemm.batched_flops");
  static obs::Counter& bytes =
      obs::Registry::global().counter("gemm.batched_bytes");
  static obs::Histogram& batch = obs::Registry::global().histogram(
      "gemm.batched_items", "", {1, 2, 4, 8, 16, 32, 64, 128});
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * n * k * items);
  bytes.add(static_cast<std::uint64_t>(m * k + k * n + 2 * m * n) * items *
            sizeof(Scalar));
  batch.observe(static_cast<double>(items));
}

}  // namespace detail

void gemm_batched(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, std::size_t items, const Scalar* a,
                  std::size_t lda, std::size_t stride_a, const Scalar* b,
                  std::size_t ldb, std::size_t stride_b, Scalar beta, Scalar* c,
                  std::size_t ldc, std::size_t stride_c) {
  if (items == 0 || m == 0 || n == 0) return;
  record_batched(m, n, k, items);

  if (stride_c == 0) {
    // Shared accumulator: items apply in index order, exactly like the
    // caller's own beta=1 loop would. Nothing can be amortized across items
    // here (each item's panels must fully accumulate before the next), so
    // run the plain single-product nest per item.
    for (std::size_t it = 0; it < items; ++it) {
      gemm_single(trans_a, trans_b, m, n, k, a + it * stride_a, lda,
                  b + it * stride_b, ldb, it == 0 ? beta : Scalar{1}, c, ldc);
    }
    return;
  }

  const bool direct_b = !trans_b && m <= kDirectBMaxM;

  if (stride_b != 0 && k != 0) {
    // Per-item B: the panel loop has nothing to amortize across items except
    // the shared-A pack, so run items OUTERMOST — each item's C block stays
    // hot across its k-panels exactly as in the caller's own per-item loop,
    // instead of being evicted and re-read once per panel. The shared-A
    // amortization survives by packing every (pc, ic) block of A up front.
    // Bit-identity is untouched: each item runs gemm_single's KC panels in
    // the same k order, and items are independent.
    std::size_t full_a_elems = 0;
    if (stride_a == 0) {
      for (std::size_t pc = 0; pc < k; pc += kKC) {
        const std::size_t kc = std::min(kKC, k - pc);
        for (std::size_t ic = 0; ic < m; ic += kMC) {
          full_a_elems += packed_a_size(std::min(kMC, m - ic), kc);
        }
      }
    }
    const bool share_a = stride_a == 0 && full_a_elems <= kSharedAMaxElems;

    thread_local std::vector<Scalar> a_scratch;
    thread_local std::vector<Scalar> b_scratch;
    a_scratch.resize(share_a ? full_a_elems : kMC * kKC);
    if (!direct_b) b_scratch.resize(kKC * kNC);
    if (share_a) {
      std::size_t off = 0;
      for (std::size_t pc = 0; pc < k; pc += kKC) {
        const std::size_t kc = std::min(kKC, k - pc);
        for (std::size_t ic = 0; ic < m; ic += kMC) {
          const std::size_t mc = std::min(kMC, m - ic);
          pack_a(a, lda, trans_a, ic, pc, mc, kc, a_scratch.data() + off);
          off += packed_a_size(mc, kc);
        }
      }
    }

    for (std::size_t it = 0; it < items; ++it) {
      const Scalar* ai = a + it * stride_a;
      const Scalar* bi = b + it * stride_b;
      Scalar* ci = c + it * stride_c;
      fold_beta(beta, m, n, ci, ldc);
      for (std::size_t jc = 0; jc < n; jc += kNC) {
        const std::size_t nc = std::min(kNC, n - jc);
        std::size_t a_off = 0;
        for (std::size_t pc = 0; pc < k; pc += kKC) {
          const std::size_t kc = std::min(kKC, k - pc);
          if (!direct_b) {
            pack_b(bi, ldb, trans_b, pc, jc, kc, nc, b_scratch.data());
          }
          for (std::size_t ic = 0; ic < m; ic += kMC) {
            const std::size_t mc = std::min(kMC, m - ic);
            const Scalar* ap_block;
            if (share_a) {
              ap_block = a_scratch.data() + a_off;
              a_off += packed_a_size(mc, kc);
            } else {
              pack_a(ai, lda, trans_a, ic, pc, mc, kc, a_scratch.data());
              ap_block = a_scratch.data();
            }
            macro_kernel(kc, nc, mc, ap_block, b_scratch.data(), direct_b,
                         bi + pc * ldb + jc, ldb, ci + ic * ldc + jc, ldc);
          }
        }
      }
    }
    return;
  }

  for (std::size_t it = 0; it < items; ++it) {
    fold_beta(beta, m, n, c + it * stride_c, ldc);
  }
  if (k == 0) return;

  const bool share_b = stride_b == 0 && !direct_b;
  // Shared A keeps every MC block of the current k-panel packed at once so
  // items beyond the first skip the pack entirely.
  std::size_t shared_a_elems = 0;
  if (stride_a == 0) {
    for (std::size_t ic = 0; ic < m; ic += kMC) {
      shared_a_elems += packed_a_size(std::min(kMC, m - ic), kKC);
    }
  }
  const bool share_a = stride_a == 0 && shared_a_elems <= kSharedAMaxElems;

  thread_local std::vector<Scalar> a_item;    // per-item pack, one MC block
  thread_local std::vector<Scalar> a_shared;  // all MC blocks of one k-panel
  thread_local std::vector<Scalar> b_packed;
  a_item.resize(kMC * kKC);
  if (share_a) a_shared.resize(shared_a_elems);
  if (!direct_b) b_packed.resize(kKC * kNC);

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      if (share_b) pack_b(b, ldb, trans_b, pc, jc, kc, nc, b_packed.data());
      bool shared_a_ready = false;
      for (std::size_t it = 0; it < items; ++it) {
        const Scalar* ai = a + it * stride_a;
        const Scalar* bi = b + it * stride_b;
        Scalar* ci = c + it * stride_c;
        if (!share_b && !direct_b) {
          pack_b(bi, ldb, trans_b, pc, jc, kc, nc, b_packed.data());
        }
        // Per-item MC blocking as in gemm_single. The blocking and strip
        // partition of op(A) only choose which tile computes an element;
        // the FP contract is the per-element FMA chain per KC panel.
        std::size_t ablock_off = 0;
        for (std::size_t ic = 0; ic < m; ic += kMC) {
          const std::size_t mc = std::min(kMC, m - ic);
          const Scalar* ap_block;
          if (share_a) {
            Scalar* slot = a_shared.data() + ablock_off;
            if (!shared_a_ready) pack_a(a, lda, trans_a, ic, pc, mc, kc, slot);
            ap_block = slot;
            ablock_off += packed_a_size(mc, kc);
          } else {
            pack_a(ai, lda, trans_a, ic, pc, mc, kc, a_item.data());
            ap_block = a_item.data();
          }
          macro_kernel(kc, nc, mc, ap_block, b_packed.data(), direct_b,
                       bi + pc * ldb + jc, ldb, ci + ic * ldc + jc, ldc);
        }
        shared_a_ready = share_a;
      }
    }
  }
}

}  // namespace hfl::ops

// Mixed-precision GEMM: FP32 compute, FP64 accumulate.
//
// Operands are converted to float during panel packing, the register-tile
// micro-kernel runs 8-wide float FMAs (twice the lane width of the FP64
// kernel), and every finished tile is widened back to double and added into
// the FP64 C. The float accumulation length is capped per k-panel (kKCf in
// gemm_mixed.cpp): a panel's partial products accumulate in float for at
// most kKCf steps, then land in the double accumulator, which bounds the
// relative error at ~√kKCf·ε_f32 ≈ 1e-6 regardless of k.
//
// Accuracy contract: NOT bit-identical to ops::gemm — max elementwise error
// ≤ 1e-6 relative to the FP64 result's magnitude on the library's operand
// distributions (asserted on randomized shapes, including masked-tail sizes,
// by tests/gemm_batched_test.cpp). Only the opt-in mixed-precision cohort
// path (RunConfig::mixed_precision) calls this;
// everything else in the library stays on the FP64 kernels.
#pragma once

#include <cstddef>

#include "src/common/types.h"

namespace hfl::ops {

// C = beta·C + op(A)·op(B), computed in FP32 with FP64 accumulation.
// Argument conventions are identical to ops::gemm (beta handling included).
void gemm_mixed(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, const Scalar* a, std::size_t lda,
                const Scalar* b, std::size_t ldb, Scalar beta, Scalar* c,
                std::size_t ldc);

// Strided-batch variant with the ops::gemm_batched calling convention
// (stride 0 = shared operand on A/B, in-index-order shared accumulator on C).
// Sharing is a semantic declaration here, not a pack-amortization: each item
// runs the full mixed nest (the FP32 kernel's speedup dwarfs the pack cost).
void gemm_batched_mixed(bool trans_a, bool trans_b, std::size_t m,
                        std::size_t n, std::size_t k, std::size_t items,
                        const Scalar* a, std::size_t lda, std::size_t stride_a,
                        const Scalar* b, std::size_t ldb, std::size_t stride_b,
                        Scalar beta, Scalar* c, std::size_t ldc,
                        std::size_t stride_c);

}  // namespace hfl::ops

// Strided-batch GEMM: one call computes `items` independent products that
// share their shape (and possibly operands), amortizing panel packing and
// per-call overhead across the batch.
//
// This is the compute primitive behind the cohort-fused simulation path: a
// conv layer lowers every sample of a worker's mini-batch to the same
// (out_ch × kk) · (kk × OH·OW) product with a shared weight operand, and the
// batched driver packs that operand once per cache panel instead of once per
// sample.
//
// FP contract: in FP64 each item's result is bit-identical to a separate
// ops::gemm call with the same arguments. Both compute every element as one
// FMA chain per KC panel in k order (src/tensor/gemm_detail.h), and operand
// sharing only changes *when* a panel is packed, never the packed values or
// the accumulation order. Asserted by tests/gemm_batched_test.cpp and
// tests/gemm_contract_test.cpp.
#pragma once

#include <cstddef>

#include "src/common/types.h"

namespace hfl::ops {

// For each item i in [0, items):
//   C_i = beta·C_i + op(A_i)·op(B_i)
// where X_i = x + i·stride_x and op/lda/ldb/ldc follow ops::gemm.
//
// A stride of 0 on A or B declares the operand shared across items; the
// driver then packs its panels once per cache tile instead of once per item.
// stride_c == 0 declares a shared accumulator: items are applied IN INDEX
// ORDER (C = beta·C + Σ_i op(A_i)·op(B_i), serialized), matching a caller's
// beta=1 loop bit for bit — used for conv weight gradients.
void gemm_batched(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, std::size_t items, const Scalar* a,
                  std::size_t lda, std::size_t stride_a, const Scalar* b,
                  std::size_t ldb, std::size_t stride_b, Scalar beta, Scalar* c,
                  std::size_t ldc, std::size_t stride_c);

}  // namespace hfl::ops

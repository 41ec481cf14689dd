#include "src/tensor/gemm.h"

#include "src/obs/registry.h"
#include "src/tensor/gemm_detail.h"

namespace hfl::ops {

namespace {

// Logical op accounting shared by every entry point (a gathered operand
// moves the same bytes). Hot path: gated behind the single enabled() load;
// the handles are resolved once per process.
void record_gemm(std::size_t m, std::size_t n, std::size_t k) {
  if (!obs::enabled()) return;
  static obs::Counter& calls = obs::Registry::global().counter("gemm.calls");
  static obs::Counter& flops = obs::Registry::global().counter("gemm.flops");
  static obs::Counter& bytes = obs::Registry::global().counter("gemm.bytes");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * n * k);
  bytes.add(static_cast<std::uint64_t>(m * k + k * n + 2 * m * n) *
            sizeof(Scalar));
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, const Scalar* a, std::size_t lda, const Scalar* b,
          std::size_t ldb, Scalar beta, Scalar* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  record_gemm(m, n, k);
  detail::gemm_single(trans_a, trans_b, m, n, k, a, lda, b, ldb, beta, c, ldc);
}

void gemm_rows_a(std::size_t m, std::size_t n, std::size_t k,
                 const Scalar* const* a_rows, bool trans_b, const Scalar* b,
                 std::size_t ldb, Scalar beta, Scalar* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  record_gemm(m, n, k);
  detail::gemm_gather(/*trans_a=*/false, trans_b, m, n, k, nullptr, a_rows, 0,
                      b, nullptr, ldb, beta, c, ldc);
}

void gemm_rows_b(bool trans_a, std::size_t m, std::size_t n, std::size_t k,
                 const Scalar* a, std::size_t lda,
                 const Scalar* const* b_rows, Scalar beta, Scalar* c,
                 std::size_t ldc) {
  if (m == 0 || n == 0) return;
  record_gemm(m, n, k);
  detail::gemm_gather(trans_a, /*trans_b=*/false, m, n, k, a, nullptr, lda,
                      nullptr, b_rows, 0, beta, c, ldc);
}

}  // namespace hfl::ops

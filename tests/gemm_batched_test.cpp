// Contracts of the strided-batch and mixed-precision GEMM drivers.
//
// gemm_batched promises FP64 bit-identity with per-item ops::gemm calls —
// including when operands are declared shared (stride 0) and when items
// serialize into a shared accumulator. gemm_mixed promises ≤1e-6 relative
// error against the FP64 result. Shapes are randomized around the kernels'
// blocking boundaries (6×8 or 8×16 FP64 tiles, 6×16 FP32 tiles, the kKCf
// float-accumulation cap) so register-tile remainders and masked tails are
// all exercised.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_batched.h"
#include "src/tensor/gemm_mixed.h"

namespace hfl {
namespace {

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct Shape {
  std::size_t m, n, k;
};

// Dimensions straddling the register tiles (6×8 or 8×16 double, NR=16 float),
// the direct-B cutoff (m <= 32), and the cache panels (KC=256, float
// kKCf=96).
const std::vector<Shape> kShapes = {
    {1, 1, 1},   {3, 5, 2},    {6, 8, 16},   {7, 9, 17},  {12, 16, 96},
    {13, 17, 97}, {33, 31, 64}, {40, 24, 100}, {5, 130, 260},
};

class GemmBatchedTest : public ::testing::TestWithParam<bool> {};

// Independent per-item operands: batched result must equal per-item gemm
// calls bit for bit, for both transpose settings and both beta values.
TEST_P(GemmBatchedTest, MatchesPerItemGemmBitwise) {
  const bool trans_b = GetParam();
  Rng rng(11);
  for (const Shape& s : kShapes) {
    for (const Scalar beta : {0.0, 1.0}) {
      const std::size_t items = 5;
      const Vec a = random_vec(items * s.m * s.k, rng);
      const Vec b = random_vec(items * s.k * s.n, rng);
      Vec c_ref = random_vec(items * s.m * s.n, rng);
      Vec c_bat = c_ref;
      const std::size_t ldb = trans_b ? s.k : s.n;
      for (std::size_t i = 0; i < items; ++i) {
        ops::gemm(false, trans_b, s.m, s.n, s.k, a.data() + i * s.m * s.k,
                  s.k, b.data() + i * s.k * s.n, ldb, beta,
                  c_ref.data() + i * s.m * s.n, s.n);
      }
      ops::gemm_batched(false, trans_b, s.m, s.n, s.k, items, a.data(), s.k,
                        s.m * s.k, b.data(), ldb, s.k * s.n, beta,
                        c_bat.data(), s.n, s.m * s.n);
      EXPECT_EQ(c_ref, c_bat) << "m=" << s.m << " n=" << s.n << " k=" << s.k
                              << " beta=" << beta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TransB, GemmBatchedTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "transposed" : "plain";
                         });

// stride_b == 0: every item multiplies the same B (the conv forward layout).
// Pack amortization must not change a single bit.
TEST(GemmBatchedTest, SharedBMatchesPerItemBitwise) {
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const std::size_t items = 7;
    const Vec a = random_vec(items * s.m * s.k, rng);
    const Vec b = random_vec(s.k * s.n, rng);
    Vec c_ref(items * s.m * s.n, 0.0);
    Vec c_bat = c_ref;
    for (std::size_t i = 0; i < items; ++i) {
      ops::gemm(false, false, s.m, s.n, s.k, a.data() + i * s.m * s.k, s.k,
                b.data(), s.n, 0.0, c_ref.data() + i * s.m * s.n, s.n);
    }
    ops::gemm_batched(false, false, s.m, s.n, s.k, items, a.data(), s.k,
                      s.m * s.k, b.data(), s.n, 0, 0.0, c_bat.data(), s.n,
                      s.m * s.n);
    EXPECT_EQ(c_ref, c_bat) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

// stride_a == 0: shared left operand (the dcol backward layout, transposed
// weights shared across samples).
TEST(GemmBatchedTest, SharedAMatchesPerItemBitwise) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    const std::size_t items = 6;
    const Vec a = random_vec(s.k * s.m, rng);  // stored k×m for trans_a
    const Vec b = random_vec(items * s.k * s.n, rng);
    Vec c_ref(items * s.m * s.n, 0.0);
    Vec c_bat = c_ref;
    for (std::size_t i = 0; i < items; ++i) {
      ops::gemm(true, false, s.m, s.n, s.k, a.data(), s.m,
                b.data() + i * s.k * s.n, s.n, 0.0,
                c_ref.data() + i * s.m * s.n, s.n);
    }
    ops::gemm_batched(true, false, s.m, s.n, s.k, items, a.data(), s.m, 0,
                      b.data(), s.n, s.k * s.n, 0.0, c_bat.data(), s.n,
                      s.m * s.n);
    EXPECT_EQ(c_ref, c_bat) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

// stride_c == 0: items land in ONE accumulator in index order, matching a
// caller's beta-then-1 loop bit for bit (the conv weight-gradient layout).
TEST(GemmBatchedTest, SharedAccumulatorMatchesSerialLoopBitwise) {
  Rng rng(14);
  for (const Shape& s : kShapes) {
    for (const Scalar beta : {0.0, 1.0}) {
      const std::size_t items = 5;
      const Vec a = random_vec(items * s.m * s.k, rng);
      const Vec b = random_vec(items * s.k * s.n, rng);
      Vec c_ref = random_vec(s.m * s.n, rng);
      Vec c_bat = c_ref;
      for (std::size_t i = 0; i < items; ++i) {
        ops::gemm(false, false, s.m, s.n, s.k, a.data() + i * s.m * s.k, s.k,
                  b.data() + i * s.k * s.n, s.n, i == 0 ? beta : 1.0,
                  c_ref.data(), s.n);
      }
      ops::gemm_batched(false, false, s.m, s.n, s.k, items, a.data(), s.k,
                        s.m * s.k, b.data(), s.n, s.k * s.n, beta,
                        c_bat.data(), s.n, /*stride_c=*/0);
      EXPECT_EQ(c_ref, c_bat) << "m=" << s.m << " n=" << s.n << " k=" << s.k
                              << " beta=" << beta;
    }
  }
}

// Largest |mixed - fp64| / max(1, max|fp64|) over the C block.
Scalar relative_error(const Vec& ref, const Vec& got) {
  Scalar scale = 1.0;
  for (const Scalar v : ref) scale = std::max(scale, std::abs(v));
  Scalar err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(ref[i] - got[i]));
  }
  return err / scale;
}

// Mixed precision vs FP64 on randomized shapes, including sizes that land on
// the float kernel's masked tails and cross the kKCf accumulation cap.
TEST(GemmMixedTest, WithinRelativeToleranceOfFp64) {
  Rng rng(15);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(40);
    const std::size_t n = 1 + rng.uniform_index(40);
    const std::size_t k = 1 + rng.uniform_index(300);
    const bool trans_a = rng.uniform() < 0.5;
    const bool trans_b = rng.uniform() < 0.5;
    const Scalar beta = rng.uniform() < 0.5 ? 0.0 : 1.0;
    const Vec a = random_vec(m * k, rng);
    const Vec b = random_vec(k * n, rng);
    Vec c_ref = random_vec(m * n, rng);
    Vec c_mix = c_ref;
    const std::size_t lda = trans_a ? m : k;
    const std::size_t ldb = trans_b ? k : n;
    ops::gemm(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb, beta,
              c_ref.data(), n);
    ops::gemm_mixed(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
                    beta, c_mix.data(), n);
    EXPECT_LE(relative_error(c_ref, c_mix), 1e-6)
        << "m=" << m << " n=" << n << " k=" << k << " ta=" << trans_a
        << " tb=" << trans_b << " beta=" << beta;
  }
}

// The batched mixed driver must agree with per-item gemm_mixed bitwise (same
// kernels, same order), and its shared accumulator must serialize in index
// order like the FP64 driver.
TEST(GemmMixedTest, BatchedMatchesPerItemMixedBitwise) {
  Rng rng(16);
  for (const Shape& s : kShapes) {
    const std::size_t items = 4;
    const Vec a = random_vec(items * s.m * s.k, rng);
    const Vec b = random_vec(items * s.k * s.n, rng);
    Vec c_ref(items * s.m * s.n, 0.0);
    Vec c_bat = c_ref;
    for (std::size_t i = 0; i < items; ++i) {
      ops::gemm_mixed(false, false, s.m, s.n, s.k, a.data() + i * s.m * s.k,
                      s.k, b.data() + i * s.k * s.n, s.n, 0.0,
                      c_ref.data() + i * s.m * s.n, s.n);
    }
    ops::gemm_batched_mixed(false, false, s.m, s.n, s.k, items, a.data(), s.k,
                            s.m * s.k, b.data(), s.n, s.k * s.n, 0.0,
                            c_bat.data(), s.n, s.m * s.n);
    EXPECT_EQ(c_ref, c_bat) << "m=" << s.m << " n=" << s.n << " k=" << s.k;

    Vec acc_ref(s.m * s.n, 0.0);
    Vec acc_bat(s.m * s.n, 0.0);
    for (std::size_t i = 0; i < items; ++i) {
      ops::gemm_mixed(false, false, s.m, s.n, s.k, a.data() + i * s.m * s.k,
                      s.k, b.data() + i * s.k * s.n, s.n, i == 0 ? 0.0 : 1.0,
                      acc_ref.data(), s.n);
    }
    ops::gemm_batched_mixed(false, false, s.m, s.n, s.k, items, a.data(), s.k,
                            s.m * s.k, b.data(), s.n, s.k * s.n, 0.0,
                            acc_bat.data(), s.n, 0);
    EXPECT_EQ(acc_ref, acc_bat) << "m=" << s.m << " n=" << s.n
                                << " k=" << s.k;
  }
}

}  // namespace
}  // namespace hfl

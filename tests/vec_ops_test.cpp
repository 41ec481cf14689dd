// Tests for common/vec_ops: the flat-vector math every FL algorithm uses.
#include "src/common/vec_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"

namespace hfl {
namespace {

TEST(VecOpsTest, AxpyAccumulates) {
  Vec x{1, 2, 3}, y{10, 20, 30};
  vec::axpy(2.0, x, y);
  EXPECT_EQ(y, (Vec{12, 24, 36}));
}

TEST(VecOpsTest, AxpySizeMismatchThrows) {
  Vec x{1, 2}, y{1};
  EXPECT_THROW(vec::axpy(1.0, x, y), Error);
}

TEST(VecOpsTest, ScaleMultiplies) {
  Vec x{1, -2, 4};
  vec::scale(x, -0.5);
  EXPECT_EQ(x, (Vec{-0.5, 1, -2}));
}

TEST(VecOpsTest, LinearCombination) {
  Vec x{1, 2}, y{3, 4}, out(2);
  vec::linear_combination(2.0, x, -1.0, y, out);
  EXPECT_EQ(out, (Vec{-1, 0}));
}

TEST(VecOpsTest, LinearCombinationAliasesSafely) {
  Vec x{1, 2}, y{3, 4};
  vec::linear_combination(1.0, x, 1.0, y, x);
  EXPECT_EQ(x, (Vec{4, 6}));
}

TEST(VecOpsTest, DotProduct) {
  Vec x{1, 2, 3}, y{4, 5, 6};
  EXPECT_DOUBLE_EQ(vec::dot(x, y), 32.0);
}

TEST(VecOpsTest, NormOfUnitVectors) {
  Vec x{3, 4};
  EXPECT_DOUBLE_EQ(vec::norm(x), 5.0);
  Vec zero{0, 0, 0};
  EXPECT_DOUBLE_EQ(vec::norm(zero), 0.0);
}

TEST(VecOpsTest, Distance) {
  Vec x{1, 1}, y{4, 5};
  EXPECT_DOUBLE_EQ(vec::distance(x, y), 5.0);
}

TEST(VecOpsTest, CosineParallel) {
  Vec x{1, 2, 3}, y{2, 4, 6};
  EXPECT_NEAR(vec::cosine(x, y), 1.0, 1e-12);
}

TEST(VecOpsTest, CosineAntiParallel) {
  Vec x{1, 0}, y{-3, 0};
  EXPECT_NEAR(vec::cosine(x, y), -1.0, 1e-12);
}

TEST(VecOpsTest, CosineOrthogonal) {
  Vec x{1, 0}, y{0, 7};
  EXPECT_NEAR(vec::cosine(x, y), 0.0, 1e-12);
}

TEST(VecOpsTest, CosineZeroVectorIsZero) {
  Vec x{0, 0}, y{1, 2};
  EXPECT_DOUBLE_EQ(vec::cosine(x, y), 0.0);
  EXPECT_DOUBLE_EQ(vec::cosine(y, x), 0.0);
}

TEST(VecOpsTest, CosineClampedToValidRange) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    Vec x(5), y(5);
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    const Scalar c = vec::cosine(x, y);
    EXPECT_GE(c, -1.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(VecOpsTest, WeightedSumBasic) {
  std::vector<Vec> vs{{1, 0}, {0, 1}};
  Vec weights{0.25, 0.75};
  Vec out;
  vec::weighted_sum(vs, weights, out);
  EXPECT_EQ(out, (Vec{0.25, 0.75}));
}

TEST(VecOpsTest, WeightedMeanPreservesConstantVectors) {
  // Property: a weighted mean (weights summing to one) of identical vectors
  // returns that vector — the redistribution invariant of FL aggregation.
  std::vector<Vec> vs(4, Vec{3.0, -1.5, 2.25});
  Vec weights{0.1, 0.2, 0.3, 0.4};
  Vec out;
  vec::weighted_sum(vs, weights, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], vs[0][i], 1e-12);
  }
}

TEST(VecOpsTest, WeightedSumMismatchThrows) {
  std::vector<Vec> vs{{1, 0}, {0, 1}};
  Vec weights{1.0};
  Vec out;
  EXPECT_THROW(vec::weighted_sum(vs, weights, out), Error);
}

TEST(VecOpsTest, FillSetsAllEntries) {
  Vec x(5, 1.0);
  vec::fill(x, -2.5);
  for (const Scalar v : x) EXPECT_DOUBLE_EQ(v, -2.5);
}

TEST(VecOpsTest, MaxAbsDiff) {
  Vec x{1, 2, 3}, y{1, 5, 2.5};
  EXPECT_DOUBLE_EQ(vec::max_abs_diff(x, y), 3.0);
}

// cosines_clear against cosines: same bits for 1, 2 and 3 pairs (both arms
// of the pair loop and the odd pair), odd n, −0.0 inputs, both signs, and
// with and without clearing the y rows; every row it clears is left +0.0.
bool is_plus_zero(const Vec& v) {
  for (const Scalar x : v) {
    if (x != 0.0 || std::signbit(x)) return false;
  }
  return true;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0;
}

TEST(VecOpsTest, CosinesClearMatchesCosinesAndZeroesWhatItRead) {
  constexpr std::size_t kN = 13;
  Rng rng(11);
  for (std::size_t pairs = 1; pairs <= 3; ++pairs) {
    for (const bool negate : {false, true}) {
      for (const bool clear_ys : {false, true}) {
        SCOPED_TRACE(std::to_string(pairs) + " pairs, negate " +
                     std::to_string(negate) + ", clear_ys " +
                     std::to_string(clear_ys));
        std::vector<Vec> xs(pairs, Vec(kN)), ys(pairs, Vec(kN));
        for (std::size_t k = 0; k < pairs; ++k) {
          for (std::size_t i = 0; i < kN; ++i) {
            xs[k][i] = rng.normal();
            ys[k][i] = rng.normal();
          }
          xs[k][k] = -0.0;
          ys[k][kN - 1 - k] = -0.0;
        }
        std::vector<const Scalar*> cx, cy;
        std::vector<Scalar*> mx, my;
        for (std::size_t k = 0; k < pairs; ++k) {
          cx.push_back(xs[k].data());
          cy.push_back(ys[k].data());
          mx.push_back(xs[k].data());
          my.push_back(ys[k].data());
        }
        const std::vector<Vec> ys_before = ys;
        Vec want(pairs), got(pairs);
        vec::cosines(cx, cy, kN, negate, want);
        vec::cosines_clear(mx, my, kN, negate, clear_ys, got);
        EXPECT_TRUE(same_bits(got, want));
        for (std::size_t k = 0; k < pairs; ++k) {
          EXPECT_TRUE(is_plus_zero(xs[k])) << "x row " << k;
          if (clear_ys) {
            EXPECT_TRUE(is_plus_zero(ys[k])) << "y row " << k;
          } else {
            EXPECT_TRUE(same_bits(ys[k], ys_before[k])) << "y row " << k;
          }
        }
      }
    }
  }
}

TEST(VecOpsTest, CosinesClearSharedUnclearedRow) {
  // kCrossWorker's shape: every x row matched against one shared y row,
  // which is read by every pair and must survive the pass.
  constexpr std::size_t kN = 7;
  Rng rng(12);
  Vec shared(kN);
  for (Scalar& v : shared) v = rng.normal();
  std::vector<Vec> xs(3, Vec(kN));
  for (Vec& x : xs) {
    for (Scalar& v : x) v = rng.normal();
  }
  const std::vector<Vec> xs_before = xs;
  const Vec shared_before = shared;
  Vec want(3), got(3);
  for (std::size_t k = 0; k < 3; ++k) {
    want[k] = vec::cosine(xs_before[k], shared_before);
  }
  std::vector<Scalar*> mx{xs[0].data(), xs[1].data(), xs[2].data()};
  std::vector<Scalar*> my(3, shared.data());
  vec::cosines_clear(mx, my, kN, /*negate=*/false, /*clear_ys=*/false, got);
  EXPECT_TRUE(same_bits(got, want));
  EXPECT_TRUE(same_bits(shared, shared_before));
  for (const Vec& x : xs) EXPECT_TRUE(is_plus_zero(x));
}

}  // namespace
}  // namespace hfl

// The FP64 GEMM's bit contract, as a scalar reference every entry point must
// match bit for bit: for each 256-deep panel of k, every C element is one
// chain `acc = +0; acc = fma(a_p, b_p, acc)` in k order (multiply, then add,
// on builds without FMA), and the panel's acc is then added to C, after beta
// has scaled C once. Register-tile shape, cache blocking, strip partition,
// packing, row gathering and operand sharing are free to change; none of
// them may move a bit, which is what lets each vector ISA pick its own tile.
//
// The grid spans m 1–17 (full, padded and 4-row narrow A strips of the 4-,
// 6- and 8-row tiles), n 1–33 (full and ragged 4-, 8- and 16-lane B
// strips), the direct-B (untransposed B, small m) and packed-B paths, and k
// on both sides of one and two panel boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_batched.h"

namespace hfl {
namespace {

// Depth of one accumulation panel: part of the contract, so spelled out
// here rather than read from the kernel's constants.
constexpr std::size_t kPanel = 256;

Scalar chain_step(Scalar a, Scalar b, Scalar acc) {
#if defined(__FMA__)
  return std::fma(a, b, acc);
#else
  return a * b + acc;
#endif
}

// Operands of one product: op(A) is m×k, op(B) is k×n, both stored densely
// with the leading dimension their transpose flag implies.
struct Product {
  bool trans_a, trans_b;
  std::size_t m, n, k;
  std::size_t lda() const { return trans_a ? m : k; }
  std::size_t ldb() const { return trans_b ? k : n; }
};

// C = beta·C + op(A)·op(B) by the contract.
void contract_gemm(const Product& s, const Scalar* a, const Scalar* b,
                   Scalar beta, Scalar* c) {
  for (std::size_t e = 0; e < s.m * s.n; ++e) {
    c[e] = beta == 0.0 ? 0.0 : (beta == 1.0 ? c[e] : c[e] * beta);
  }
  std::vector<Scalar> acc(s.n);
  for (std::size_t pc = 0; pc < s.k; pc += kPanel) {
    const std::size_t end = std::min(s.k, pc + kPanel);
    for (std::size_t i = 0; i < s.m; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t p = pc; p < end; ++p) {
        const Scalar av = s.trans_a ? a[p * s.lda() + i] : a[i * s.lda() + p];
        for (std::size_t j = 0; j < s.n; ++j) {
          const Scalar bv = s.trans_b ? b[j * s.ldb() + p] : b[p * s.ldb() + j];
          acc[j] = chain_step(av, bv, acc[j]);
        }
      }
      for (std::size_t j = 0; j < s.n; ++j) c[i * s.n + j] += acc[j];
    }
  }
}

::testing::AssertionResult same_bits(const Vec& want, const Vec& got) {
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(Scalar)) ==
      0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t e = 0;
  while (std::memcmp(&want[e], &got[e], sizeof(Scalar)) == 0) ++e;
  return ::testing::AssertionFailure()
         << "element " << e << ": contract " << want[e] << ", got " << got[e];
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<const Scalar*> row_pointers(const Vec& x, std::size_t rows,
                                        std::size_t ld) {
  std::vector<const Scalar*> out(rows);
  for (std::size_t r = 0; r < rows; ++r) out[r] = x.data() + r * ld;
  return out;
}

// Checks every FP64 entry point on one product against the contract. Two
// items per batched call: each item's own operands drive the reference.
void check_product(const Product& s, Scalar beta, Rng& rng) {
  const std::size_t sa = s.m * s.k, sb = s.k * s.n, sc = s.m * s.n;
  const Vec a = random_vec(2 * sa, rng);
  const Vec b = random_vec(2 * sb, rng);
  // beta == 0 must never read C: start it as NaN.
  const Vec c0 = beta == 0.0
                     ? Vec(2 * sc, std::numeric_limits<Scalar>::quiet_NaN())
                     : random_vec(2 * sc, rng);
  const Scalar* a1 = a.data() + sa;
  const Scalar* b1 = b.data() + sb;
  const std::string where = "m=" + std::to_string(s.m) +
                            " n=" + std::to_string(s.n) +
                            " k=" + std::to_string(s.k) +
                            " ta=" + std::to_string(s.trans_a) +
                            " tb=" + std::to_string(s.trans_b) +
                            " beta=" + std::to_string(beta);

  // Per-item references: item 0 is (A0, B0) into C0; item 1 pairs the
  // second C with whichever operands the call under test gives it.
  const auto reference = [&](const Scalar* ai, const Scalar* bi) {
    Vec c(c0.begin() + sc, c0.end());
    contract_gemm(s, ai, bi, beta, c.data());
    return c;
  };
  Vec want(c0);
  contract_gemm(s, a.data(), b.data(), beta, want.data());
  want.resize(sc);

  Vec got(c0);
  ops::gemm(s.trans_a, s.trans_b, s.m, s.n, s.k, a.data(), s.lda(), b.data(),
            s.ldb(), beta, got.data(), s.n);
  got.resize(sc);
  EXPECT_TRUE(same_bits(want, got)) << "gemm " << where;

  if (!s.trans_a) {
    const auto rows = row_pointers(a, s.m, s.k);
    Vec g(c0.begin(), c0.begin() + sc);
    ops::gemm_rows_a(s.m, s.n, s.k, rows.data(), s.trans_b, b.data(), s.ldb(),
                     beta, g.data(), s.n);
    EXPECT_TRUE(same_bits(want, g)) << "gemm_rows_a " << where;
  }
  if (!s.trans_b) {
    const auto rows = row_pointers(b, s.k, s.n);
    Vec g(c0.begin(), c0.begin() + sc);
    ops::gemm_rows_b(s.trans_a, s.m, s.n, s.k, a.data(), s.lda(), rows.data(),
                     beta, g.data(), s.n);
    EXPECT_TRUE(same_bits(want, g)) << "gemm_rows_b " << where;
  }

  const auto batched = [&](std::size_t stride_a, std::size_t stride_b,
                           std::size_t stride_c) {
    Vec g(c0);
    ops::gemm_batched(s.trans_a, s.trans_b, s.m, s.n, s.k, 2, a.data(),
                      s.lda(), stride_a, b.data(), s.ldb(), stride_b, beta,
                      g.data(), s.n, stride_c);
    return g;
  };
  const auto split = [&](const Vec& g, std::size_t item) {
    return Vec(g.begin() + item * sc, g.begin() + (item + 1) * sc);
  };
  const Vec shared_a = batched(0, sb, sc);
  EXPECT_TRUE(same_bits(want, split(shared_a, 0))) << "shared A " << where;
  EXPECT_TRUE(same_bits(reference(a.data(), b1), split(shared_a, 1)))
      << "shared A, item 1 " << where;
  const Vec shared_b = batched(sa, 0, sc);
  EXPECT_TRUE(same_bits(want, split(shared_b, 0))) << "shared B " << where;
  EXPECT_TRUE(same_bits(reference(a1, b.data()), split(shared_b, 1)))
      << "shared B, item 1 " << where;
  // Shared C: items fold in index order, the second with beta = 1.
  Vec want_c = want;
  contract_gemm(s, a1, b1, 1.0, want_c.data());
  EXPECT_TRUE(same_bits(want_c, split(batched(sa, sb, 0), 0)))
      << "shared C " << where;
}

TEST(GemmContractTest, EveryEntryPointMatchesTheChainBitwise) {
  Rng rng(22);
  const Scalar betas[] = {0.0, 1.0, 0.5};
  for (const std::size_t k : {1, 8, 255, 256, 257, 513}) {
    for (std::size_t m = 1; m <= 17; ++m) {
      for (std::size_t n = 1; n <= 33; ++n) {
        // Every beta meets every transpose combination at every k.
        const Scalar beta = betas[(m + n) % 3];
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            check_product({ta, tb, m, n, k}, beta, rng);
            if (HasFailure()) return;  // one product's report is enough
          }
        }
      }
    }
  }
}

// Past the grid: shapes crossing the MC, NC and packed-B (m > 32) blocking.
TEST(GemmContractTest, CacheBlockBoundariesMatchTheChainBitwise) {
  Rng rng(23);
  const Product shapes[] = {{false, false, 33, 40, 300},
                            {true, false, 67, 19, 257},
                            {false, true, 70, 130, 513},
                            {false, false, 12, 1030, 20},
                            {true, true, 129, 17, 64}};
  for (const Product& s : shapes) {
    for (const Scalar beta : {0.0, 1.0, 0.5}) check_product(s, beta, rng);
  }
}

}  // namespace
}  // namespace hfl

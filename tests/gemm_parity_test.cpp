// Parity tests for the blocked GEMM kernel and the GEMM-backed Conv2d
// against straightforward reference implementations.
//
// The blocked kernel has many shape-dependent code paths (register-tile
// remainders, narrow final A strips, ragged-right direct-B tiles, packed vs
// direct B, cache-block boundaries), so shapes are chosen to land on every
// one of them: dimensions of 1, non-multiples of the register tiles, and
// sizes that cross the MC/KC/NC panel boundaries. Reference and kernel run
// the same double-precision FMA chain in different orders, so agreement is
// required to 1e-10 in max-abs terms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/conv2d.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace hfl {
namespace {

Scalar max_abs_diff(const Vec& a, const Vec& b) {
  EXPECT_EQ(a.size(), b.size());
  Scalar m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// Triple-loop reference: C = beta·C + op(A)·op(B).
void reference_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                    std::size_t k, const Vec& a, std::size_t lda, const Vec& b,
                    std::size_t ldb, Scalar beta, Vec& c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Scalar acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const Scalar av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const Scalar bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += av * bv;
      }
      c[i * ldc + j] = beta * c[i * ldc + j] + acc;
    }
  }
}

struct GemmShape {
  std::size_t m, n, k;
};

// Covers: unit dims, sub-register-tile sizes, remainders of the 6×8 and
// 8×16 register tiles, narrow final A strips (≤ 4 live rows), the direct-B
// small-m fast path (m ≤ 32) and the packed-B path beyond it, and shapes
// crossing the KC=256 / NC=1024 / MC=64 or 66 cache-block boundaries.
// gemm_contract_test checks every small shape bit for bit.
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 17, 5},   {13, 1, 7},   {5, 9, 1},    {6, 8, 16},
    {7, 9, 33},   {16, 196, 200},  // conv-forward shape: narrow strip + tail
    {23, 31, 19}, {32, 100, 64},   // largest direct-B m
    {33, 100, 64},                 // smallest packed-B m
    {66, 64, 256},
    {67, 40, 257},                 // crosses MC and KC boundaries
    {12, 1030, 20},                // crosses the NC boundary
    {70, 130, 300},
};

TEST(GemmParityTest, MatchesReferenceAcrossShapes) {
  Rng rng(2024);
  for (const auto& s : kShapes) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const std::size_t lda = trans_a ? s.m : s.k;
        const std::size_t ldb = trans_b ? s.k : s.n;
        const Vec a = random_vec(s.m * s.k, rng);
        const Vec b = random_vec(s.k * s.n, rng);
        Vec c_ref = random_vec(s.m * s.n, rng);
        Vec c_got = c_ref;
        reference_gemm(trans_a, trans_b, s.m, s.n, s.k, a, lda, b, ldb, 0.0,
                       c_ref, s.n);
        ops::gemm(trans_a, trans_b, s.m, s.n, s.k, a.data(), lda, b.data(),
                  ldb, 0.0, c_got.data(), s.n);
        EXPECT_LE(max_abs_diff(c_ref, c_got), 1e-10)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " trans_a=" << trans_a << " trans_b=" << trans_b;
      }
    }
  }
}

TEST(GemmParityTest, BetaAccumulatesAndScales) {
  Rng rng(7);
  const GemmShape s{16, 52, 40};
  const Vec a = random_vec(s.m * s.k, rng);
  const Vec b = random_vec(s.k * s.n, rng);
  for (const Scalar beta : {0.0, 1.0, -0.5}) {
    Vec c_ref = random_vec(s.m * s.n, rng);
    Vec c_got = c_ref;
    reference_gemm(false, false, s.m, s.n, s.k, a, s.k, b, s.n, beta, c_ref,
                   s.n);
    ops::gemm(false, false, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, beta,
              c_got.data(), s.n);
    EXPECT_LE(max_abs_diff(c_ref, c_got), 1e-10) << "beta=" << beta;
  }
}

TEST(GemmParityTest, ZeroTimesNonFiniteFollowsIEEE) {
  // The kernel must not skip zero operands: 0 · inf and 0 · nan are NaN.
  Vec a = {0.0, 1.0};
  Vec b = {std::numeric_limits<Scalar>::infinity(), 2.0};
  Vec c = {0.0};
  ops::gemm(false, false, 1, 1, 2, a.data(), 2, b.data(), 1, 0.0, c.data(), 1);
  EXPECT_TRUE(std::isnan(c[0]));
}

TEST(GemmParityTest, TensorMatmulWrappersAgree) {
  Rng rng(99);
  const std::size_t m = 21, n = 43, k = 30;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor at({k, m});
  Tensor bt({n, k});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  Tensor c0({m, n}), c1({m, n}), c2({m, n});
  ops::matmul(a, b, c0);
  ops::matmul_transpose_a(at, b, c1);
  ops::matmul_transpose_b(a, bt, c2);
  EXPECT_LE(max_abs_diff(c0.data(), c1.data()), 1e-10);
  EXPECT_LE(max_abs_diff(c0.data(), c2.data()), 1e-10);
}

// ---------------------------------------------------------------------------
// Conv2d vs a direct (quadruple-loop) convolution.

struct ConvCase {
  std::size_t batch, in_ch, out_ch, k, pad, h, w;
};

const ConvCase kConvCases[] = {
    {2, 1, 1, 1, 0, 5, 7},   // 1×1 kernel, no padding, H≠W
    {3, 2, 5, 3, 1, 8, 6},   // same-size 3×3
    {2, 3, 4, 5, 2, 9, 11},  // 5×5 with pad 2
    {1, 4, 3, 3, 0, 7, 7},   // valid (unpadded) conv
    {4, 2, 6, 3, 2, 6, 5},   // padding larger than usual (output grows)
    {2, 2, 3, 5, 2, 1, 7},   // H=1 with a 5×5 kernel: rows fully padded out
};

// Direct convolution and its gradients, elementwise from the definition.
void reference_conv(const ConvCase& cc, const Tensor& x, const Tensor& w,
                    const Tensor& bias, Tensor& y) {
  const std::size_t oh = cc.h + 2 * cc.pad - cc.k + 1;
  const std::size_t ow = cc.w + 2 * cc.pad - cc.k + 1;
  for (std::size_t b = 0; b < cc.batch; ++b) {
    for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
      for (std::size_t i = 0; i < oh; ++i) {
        for (std::size_t j = 0; j < ow; ++j) {
          Scalar acc = bias[oc];
          for (std::size_t ic = 0; ic < cc.in_ch; ++ic) {
            for (std::size_t kh = 0; kh < cc.k; ++kh) {
              for (std::size_t kw = 0; kw < cc.k; ++kw) {
                const std::ptrdiff_t ih =
                    static_cast<std::ptrdiff_t>(i + kh) -
                    static_cast<std::ptrdiff_t>(cc.pad);
                const std::ptrdiff_t iw =
                    static_cast<std::ptrdiff_t>(j + kw) -
                    static_cast<std::ptrdiff_t>(cc.pad);
                if (ih < 0 || iw < 0 ||
                    ih >= static_cast<std::ptrdiff_t>(cc.h) ||
                    iw >= static_cast<std::ptrdiff_t>(cc.w)) {
                  continue;
                }
                acc += w[((oc * cc.in_ch + ic) * cc.k + kh) * cc.k + kw] *
                       x[((b * cc.in_ch + ic) * cc.h +
                          static_cast<std::size_t>(ih)) *
                             cc.w +
                         static_cast<std::size_t>(iw)];
              }
            }
          }
          y[((b * cc.out_ch + oc) * oh + i) * ow + j] = acc;
        }
      }
    }
  }
}

TEST(Conv2dParityTest, ForwardMatchesDirectConvolution) {
  Rng rng(11);
  for (const auto& cc : kConvCases) {
    nn::Conv2d conv(cc.in_ch, cc.out_ch, cc.k, cc.pad);
    Rng init = rng.fork(1);
    conv.init_params(init);
    // Give the bias nonzero values so its path is exercised too.
    for (auto& v : conv.params()[1]->data()) v = rng.uniform(-0.5, 0.5);
    Tensor x = Tensor::randn({cc.batch, cc.in_ch, cc.h, cc.w}, rng);

    const std::size_t oh = cc.h + 2 * cc.pad - cc.k + 1;
    const std::size_t ow = cc.w + 2 * cc.pad - cc.k + 1;
    Tensor y_ref({cc.batch, cc.out_ch, oh, ow});
    reference_conv(cc, x, *conv.params()[0], *conv.params()[1], y_ref);
    const Tensor y = conv.forward(x, /*train=*/true);
    ASSERT_EQ(y.shape(), y_ref.shape());
    EXPECT_LE(max_abs_diff(y.data(), y_ref.data()), 1e-10)
        << "in_ch=" << cc.in_ch << " out_ch=" << cc.out_ch << " k=" << cc.k
        << " pad=" << cc.pad;
  }
}

TEST(Conv2dParityTest, BackwardMatchesDirectGradients) {
  Rng rng(23);
  for (const auto& cc : kConvCases) {
    nn::Conv2d conv(cc.in_ch, cc.out_ch, cc.k, cc.pad);
    Rng init = rng.fork(2);
    conv.init_params(init);
    Tensor x = Tensor::randn({cc.batch, cc.in_ch, cc.h, cc.w}, rng);
    const Tensor y = conv.forward(x, /*train=*/true);
    Tensor g(y.shape());
    for (auto& v : g.data()) v = rng.uniform(-1.0, 1.0);

    const Tensor grad_in = conv.backward(g);

    const std::size_t oh = cc.h + 2 * cc.pad - cc.k + 1;
    const std::size_t ow = cc.w + 2 * cc.pad - cc.k + 1;
    const Tensor& w = *conv.params()[0];

    // grad_bias[oc] = Σ_{b,i,j} g(b, oc, i, j)
    Tensor gb_ref({cc.out_ch});
    for (std::size_t b = 0; b < cc.batch; ++b) {
      for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
        for (std::size_t c = 0; c < oh * ow; ++c) {
          gb_ref[oc] += g[(b * cc.out_ch + oc) * oh * ow + c];
        }
      }
    }

    // grad_weight and grad_in from the definition.
    Tensor gw_ref({cc.out_ch, cc.in_ch, cc.k, cc.k});
    Tensor gx_ref(x.shape());
    for (std::size_t b = 0; b < cc.batch; ++b) {
      for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
        for (std::size_t i = 0; i < oh; ++i) {
          for (std::size_t j = 0; j < ow; ++j) {
            const Scalar gv = g[((b * cc.out_ch + oc) * oh + i) * ow + j];
            for (std::size_t ic = 0; ic < cc.in_ch; ++ic) {
              for (std::size_t kh = 0; kh < cc.k; ++kh) {
                for (std::size_t kw = 0; kw < cc.k; ++kw) {
                  const std::ptrdiff_t ih =
                      static_cast<std::ptrdiff_t>(i + kh) -
                      static_cast<std::ptrdiff_t>(cc.pad);
                  const std::ptrdiff_t iw =
                      static_cast<std::ptrdiff_t>(j + kw) -
                      static_cast<std::ptrdiff_t>(cc.pad);
                  if (ih < 0 || iw < 0 ||
                      ih >= static_cast<std::ptrdiff_t>(cc.h) ||
                      iw >= static_cast<std::ptrdiff_t>(cc.w)) {
                    continue;
                  }
                  const std::size_t xi =
                      ((b * cc.in_ch + ic) * cc.h +
                       static_cast<std::size_t>(ih)) *
                          cc.w +
                      static_cast<std::size_t>(iw);
                  gw_ref[((oc * cc.in_ch + ic) * cc.k + kh) * cc.k + kw] +=
                      gv * x[xi];
                  gx_ref[xi] +=
                      gv * w[((oc * cc.in_ch + ic) * cc.k + kh) * cc.k + kw];
                }
              }
            }
          }
        }
      }
    }

    EXPECT_LE(max_abs_diff(conv.grads()[1]->data(), gb_ref.data()), 1e-10);
    EXPECT_LE(max_abs_diff(conv.grads()[0]->data(), gw_ref.data()), 1e-10);
    EXPECT_LE(max_abs_diff(grad_in.data(), gx_ref.data()), 1e-10);
  }
}

}  // namespace
}  // namespace hfl

// Parity tests for the blocked GEMM kernel and the compiled plan's GEMM-backed
// convolutions against straightforward reference implementations.
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
#include "src/nn/cohort.h"
#include "src/nn/conv2d.h"
#include "src/nn/flatten.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

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

// ---------------------------------------------------------------------------
// The plan's convolutions vs a direct (quadruple-loop) convolution.

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

std::size_t out_h(const ConvCase& cc) { return cc.h + 2 * cc.pad - cc.k + 1; }
std::size_t out_w(const ConvCase& cc) { return cc.w + 2 * cc.pad - cc.k + 1; }

// Calls f(b, oc, i, j, ic, kh, kw, xi, wi) for every term of the direct
// convolution whose input tap lies inside the (unpadded) input: xi indexes
// the (batch, in_ch, h, w) input, wi the (out_ch, in_ch, k, k) weight.
template <typename F>
void for_each_tap(const ConvCase& cc, F f) {
  const std::size_t oh = out_h(cc), ow = out_w(cc);
  for (std::size_t b = 0; b < cc.batch; ++b) {
    for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
      for (std::size_t i = 0; i < oh; ++i) {
        for (std::size_t j = 0; j < ow; ++j) {
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
                const std::size_t xi = ((b * cc.in_ch + ic) * cc.h +
                                        static_cast<std::size_t>(ih)) *
                                           cc.w +
                                       static_cast<std::size_t>(iw);
                const std::size_t wi = ((oc * cc.in_ch + ic) * cc.k + kh) *
                                           cc.k +
                                       kw;
                f(b, oc, i, j, xi, wi);
              }
            }
          }
        }
      }
    }
  }
}

// Direct convolution: y = bias + Σ w·x over the in-bounds taps.
Vec reference_conv(const ConvCase& cc, const Vec& x, const Scalar* w,
                   const Scalar* bias) {
  const std::size_t oh = out_h(cc), ow = out_w(cc);
  Vec y(cc.batch * cc.out_ch * oh * ow);
  for (std::size_t b = 0; b < cc.batch; ++b) {
    for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
      for (std::size_t c = 0; c < oh * ow; ++c) {
        y[(b * cc.out_ch + oc) * oh * ow + c] = bias[oc];
      }
    }
  }
  for_each_tap(cc, [&](std::size_t b, std::size_t oc, std::size_t i,
                       std::size_t j, std::size_t xi, std::size_t wi) {
    y[((b * cc.out_ch + oc) * oh + i) * ow + j] += w[wi] * x[xi];
  });
  return y;
}

// Its gradients for upstream gradient g: dW, db and dX from the definition.
struct ConvGrads {
  Vec w, b, x;
};

ConvGrads reference_conv_grads(const ConvCase& cc, const Vec& x,
                               const Scalar* w, const Vec& g) {
  const std::size_t oh = out_h(cc), ow = out_w(cc);
  ConvGrads d{Vec(cc.out_ch * cc.in_ch * cc.k * cc.k), Vec(cc.out_ch),
              Vec(x.size())};
  for (std::size_t b = 0; b < cc.batch; ++b) {
    for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
      for (std::size_t c = 0; c < oh * ow; ++c) {
        d.b[oc] += g[(b * cc.out_ch + oc) * oh * ow + c];
      }
    }
  }
  for_each_tap(cc, [&](std::size_t b, std::size_t oc, std::size_t i,
                       std::size_t j, std::size_t xi, std::size_t wi) {
    const Scalar gv = g[((b * cc.out_ch + oc) * oh + i) * ow + j];
    d.w[wi] += gv * x[xi];
    d.x[xi] += gv * w[wi];
  });
  return d;
}

// A model of convolutions followed by a Flatten under the MSE loss, whose
// logit gradient is (logits − onehot(label)) / B.
nn::Model conv_model(std::vector<nn::LayerPtr> convs,
                     std::vector<std::size_t> sample_shape) {
  auto net = std::make_unique<nn::Sequential>();
  for (auto& c : convs) net->add(std::move(c));
  net->emplace<nn::Flatten>();
  return nn::Model(std::move(net), std::make_unique<nn::MseOnOneHot>(),
                   std::move(sample_shape));
}

TEST(Conv2dParityTest, ForwardMatchesDirectConvolution) {
  Rng rng(11);
  for (const auto& cc : kConvCases) {
    std::vector<nn::LayerPtr> convs;
    convs.push_back(
        std::make_unique<nn::Conv2d>(cc.in_ch, cc.out_ch, cc.k, cc.pad));
    const nn::Model model =
        conv_model(std::move(convs), {cc.in_ch, cc.h, cc.w});
    // Nonzero biases so their path is exercised too.
    const Vec params = random_vec(model.num_params(), rng);
    const Vec x = random_vec(cc.batch * cc.in_ch * cc.h * cc.w, rng);

    const Vec y_ref = reference_conv(cc, x, params.data(),
                                     params.data() + cc.out_ch * cc.in_ch *
                                                         cc.k * cc.k);
    Tensor y;
    nn::CohortModel::create(model)->predict(params.data(), x.data(), cc.batch,
                                            y);
    EXPECT_LE(max_abs_diff(y.data(), y_ref), 1e-10)
        << "in_ch=" << cc.in_ch << " out_ch=" << cc.out_ch << " k=" << cc.k
        << " pad=" << cc.pad;
  }
}

// The case's convolution runs second, behind a 3×3 same-padding front
// convolution from 2 channels: the plan's dW and db of the case convolution
// check its weight and bias gradients, and the front convolution's dW and
// db check its input gradient, which the plan forms only because a
// parametric stage sits before it.
TEST(Conv2dParityTest, BackwardMatchesDirectGradients) {
  Rng rng(23);
  for (const auto& cc : kConvCases) {
    SCOPED_TRACE("in_ch=" + std::to_string(cc.in_ch) + " out_ch=" +
                 std::to_string(cc.out_ch) + " k=" + std::to_string(cc.k) +
                 " pad=" + std::to_string(cc.pad));
    const ConvCase front{cc.batch, 2, cc.in_ch, 3, 1, cc.h, cc.w};
    std::vector<nn::LayerPtr> convs;
    convs.push_back(std::make_unique<nn::Conv2d>(2, cc.in_ch, 3, 1));
    convs.push_back(
        std::make_unique<nn::Conv2d>(cc.in_ch, cc.out_ch, cc.k, cc.pad));
    const nn::Model model = conv_model(std::move(convs), {2, cc.h, cc.w});
    const Vec params = random_vec(model.num_params(), rng);
    const Scalar* w1 = params.data();
    const Scalar* b1 = w1 + cc.in_ch * 2 * 9;
    const Scalar* w2 = b1 + cc.in_ch;
    const Scalar* b2 = w2 + cc.out_ch * cc.in_ch * cc.k * cc.k;
    const Vec x = random_vec(cc.batch * 2 * cc.h * cc.w, rng);
    std::vector<std::size_t> labels(cc.batch);
    const std::size_t K = cc.out_ch * out_h(cc) * out_w(cc);
    for (auto& l : labels) l = rng.uniform_index(K);

    Vec grad(params.size());
    nn::CohortItem item;
    item.params = params.data();
    item.x = x.data();
    item.y = &labels;
    item.grad = grad.data();
    nn::CohortModel::create(model)->gradient({&item, 1});

    // Reference chain: both forwards, the MSE logit gradient, both
    // backwards.
    const Vec h = reference_conv(front, x, w1, b1);
    Vec g = reference_conv(cc, h, w2, b2);
    for (std::size_t b = 0; b < cc.batch; ++b) {
      g[b * K + labels[b]] -= 1.0;
      for (std::size_t j = 0; j < K; ++j) {
        g[b * K + j] /= static_cast<Scalar>(cc.batch);
      }
    }
    const ConvGrads d2 = reference_conv_grads(cc, h, w2, g);
    const ConvGrads d1 = reference_conv_grads(front, x, w1, d2.x);

    Vec want = d1.w;
    want.insert(want.end(), d1.b.begin(), d1.b.end());
    want.insert(want.end(), d2.w.begin(), d2.w.end());
    want.insert(want.end(), d2.b.begin(), d2.b.end());
    EXPECT_LE(max_abs_diff(grad, want), 1e-10);
  }
}

}  // namespace
}  // namespace hfl

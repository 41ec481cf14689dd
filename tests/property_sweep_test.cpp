// Parameterized property sweeps across the substrate modules: conv-layer
// gradient correctness over a geometry grid, bound-function monotonicity
// over the momentum-parameter grid, compression contracts over keep
// fractions, and aggregation invariants over fleet sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/common/errors.h"
#include "src/common/vec_ops.h"
#include "src/fl/compression.h"
#include "src/nn/cohort.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/gradcheck.h"
#include "src/nn/pool2d.h"
#include "src/theory/bounds.h"

namespace hfl {
namespace {

// ---------------- Conv2d gradcheck over geometry ----------------

using ConvGeometry = std::tuple<int, int, int, int>;  // cin, cout, k, pad

class ConvGradCheckTest : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(ConvGradCheckTest, AnalyticMatchesNumeric) {
  const auto [cin, cout, k, pad] = GetParam();
  const std::size_t hw = 6;
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(cin, cout, k, pad);
  net->emplace<nn::Flatten>();
  const std::size_t out_hw = hw + 2 * pad - k + 1;
  net->emplace<nn::Dense>(cout * out_hw * out_hw, 3);
  nn::Model model(std::move(net), std::make_unique<nn::SoftmaxCrossEntropy>(),
                  {static_cast<std::size_t>(cin), hw, hw});
  Rng rng(31 + cin * 100 + cout * 10 + k);
  model.init_params(rng);
  Tensor x = Tensor::randn({2, static_cast<std::size_t>(cin), hw, hw}, rng);
  const auto r = nn::check_gradients(model, model.get_params(), x, {0, 2},
                                     1e-5, 80);
  EXPECT_LT(r.max_rel_error, 1e-4)
      << "cin=" << cin << " cout=" << cout << " k=" << k << " pad=" << pad;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradCheckTest,
    ::testing::Values(ConvGeometry{1, 1, 1, 0}, ConvGeometry{1, 2, 3, 1},
                      ConvGeometry{2, 3, 3, 0}, ConvGeometry{3, 2, 5, 2},
                      ConvGeometry{2, 2, 2, 1}, ConvGeometry{1, 4, 5, 0}));

// ---------------- h(x, δ) monotonicity over the (γ, ηβ) grid ------------

using BoundGrid = std::tuple<double, double>;  // gamma, eta*beta

class HGapMonotoneTest : public ::testing::TestWithParam<BoundGrid> {};

TEST_P(HGapMonotoneTest, NonNegativeNonDecreasing) {
  const auto [gamma, eta_beta] = GetParam();
  theory::BoundParams p;
  p.eta = 0.01;
  p.beta = eta_beta / p.eta;
  p.rho = 1.0;
  p.gamma = gamma;
  p.gamma_edge = 0.5;
  Scalar prev = 0;
  for (std::size_t x = 1; x <= 50; ++x) {
    const Scalar h = theory::h_gap(p, x, 1.0);
    EXPECT_GE(h, -1e-10) << "gamma=" << gamma << " x=" << x;
    EXPECT_GE(h, prev - 1e-10) << "gamma=" << gamma << " x=" << x;
    prev = h;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HGapMonotoneTest,
    ::testing::Values(BoundGrid{0.1, 0.01}, BoundGrid{0.3, 0.05},
                      BoundGrid{0.5, 0.02}, BoundGrid{0.7, 0.1},
                      BoundGrid{0.9, 0.01}, BoundGrid{0.5, 0.2}));

// ---------------- s/j scaling across γℓ ----------------

class SGapScalingTest : public ::testing::TestWithParam<double> {};

TEST_P(SGapScalingTest, ProportionalToGammaEdge) {
  const double ge = GetParam();
  theory::BoundParams p;
  p.eta = 0.01;
  p.beta = 1.0;
  p.rho = 2.0;
  p.gamma = 0.5;
  p.gamma_edge = ge;
  theory::BoundParams unit = p;
  unit.gamma_edge = 0.5;
  EXPECT_NEAR(theory::s_gap(p, 10), theory::s_gap(unit, 10) * ge / 0.5,
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Gammas, SGapScalingTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.99));

// ---------------- Compression contracts over keep fractions -------------

class TopKContractTest : public ::testing::TestWithParam<double> {};

TEST_P(TopKContractTest, PayloadAndErrorContracts) {
  const double keep = GetParam();
  Rng rng(7);
  Vec v(200);
  for (auto& x : v) x = rng.normal();
  const Vec original = v;
  fl::TopKCompressor c(keep);
  const std::size_t sent = c.compress(v);

  // Payload is ceil(keep · n), clamped to [1, n].
  const auto expected = std::min<std::size_t>(
      200, std::max<std::size_t>(
               1, static_cast<std::size_t>(std::ceil(keep * 200))));
  EXPECT_EQ(sent, expected);

  // Surviving coordinates are unchanged; zeroed ones had magnitude no larger
  // than any survivor.
  Scalar min_kept = 1e300, max_dropped = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != 0) {
      EXPECT_DOUBLE_EQ(v[i], original[i]);
      min_kept = std::min(min_kept, std::abs(original[i]));
    } else {
      max_dropped = std::max(max_dropped, std::abs(original[i]));
    }
  }
  if (sent < 200) {
    EXPECT_LE(max_dropped, min_kept);
  }
}

INSTANTIATE_TEST_SUITE_P(KeepFractions, TopKContractTest,
                         ::testing::Values(0.01, 0.1, 0.25, 0.5, 0.9, 1.0));

class RandomKContractTest : public ::testing::TestWithParam<double> {};

TEST_P(RandomKContractTest, PreservesMeanMagnitude) {
  const double keep = GetParam();
  Vec v(128, 1.0);
  fl::RandomKCompressor c(keep, 17);
  c.compress(v);
  Scalar sum = 0;
  for (const Scalar x : v) sum += x;
  // Each kept coordinate is scaled by n/k, so the sum is preserved exactly
  // for a constant vector.
  EXPECT_NEAR(sum, 128.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(KeepFractions, RandomKContractTest,
                         ::testing::Values(0.05, 0.25, 0.5, 1.0));

// ---------------- Aggregation invariants over fleet sizes ----------------

class AggregationInvariantTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AggregationInvariantTest, WeightedMeanOfEqualVectorsIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(n);
  Vec weights(n);
  Scalar total = 0;
  for (auto& w : weights) {
    w = rng.uniform(0.1, 1.0);
    total += w;
  }
  for (auto& w : weights) w /= total;

  const Vec value{1.5, -2.0, 0.25};
  std::vector<Vec> vecs(n, value);
  Vec out;
  vec::weighted_sum(vecs, weights, out);
  for (std::size_t i = 0; i < value.size(); ++i) {
    EXPECT_NEAR(out[i], value[i], 1e-12);
  }
}

TEST_P(AggregationInvariantTest, MeanIsWithinComponentwiseEnvelope) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<Vec> vecs(n, Vec(4));
  Vec weights(n, 1.0 / static_cast<Scalar>(n));
  for (auto& v : vecs) {
    for (auto& x : v) x = rng.normal();
  }
  Vec out;
  vec::weighted_sum(vecs, weights, out);
  for (std::size_t j = 0; j < 4; ++j) {
    Scalar lo = 1e300, hi = -1e300;
    for (const auto& v : vecs) {
      lo = std::min(lo, v[j]);
      hi = std::max(hi, v[j]);
    }
    EXPECT_GE(out[j], lo - 1e-12);
    EXPECT_LE(out[j], hi + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, AggregationInvariantTest,
                         ::testing::Values(1, 2, 4, 10, 37, 100));

// ---------------- Pooling round-trip over window sizes ----------------

// A 1×1 convolution with weight 1 and bias 0 in front of the pool passes
// the input through, and its weight and bias gradients, Σ g·x and Σ g, read
// back the gradient the pool routed to its input. Under the MSE loss on one
// sample the pool's output gradient is known: logits − onehot(0).
struct PoolProbe {
  std::vector<Scalar> logits;
  Scalar dw = 0, db = 0;  // the front convolution's gradients
  Scalar sum_g = 0;       // Σ of the pool's output gradient
};

template <typename Pool>
PoolProbe probe_pool(std::size_t w, std::size_t h_in, std::size_t w_in,
                     const Vec& x) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(1, 1, 1, 0);
  net->emplace<Pool>(w);
  net->emplace<nn::Flatten>();
  const nn::Model model(std::move(net), std::make_unique<nn::MseOnOneHot>(),
                        {1, h_in, w_in});
  const auto plan = nn::CohortModel::create(model);
  const Vec params{1, 0};
  const std::vector<std::size_t> label{0};
  Vec grad(2);
  nn::CohortItem item;
  item.params = params.data();
  item.x = x.data();
  item.y = &label;
  item.grad = grad.data();
  plan->gradient({&item, 1});
  Tensor pred;
  plan->predict(params.data(), x.data(), 1, pred);
  PoolProbe p;
  p.logits = pred.data();
  p.dw = grad[0];
  p.db = grad[1];
  for (std::size_t o = 0; o < p.logits.size(); ++o) {
    p.sum_g += p.logits[o] - (o == 0 ? 1.0 : 0.0);
  }
  return p;
}

class PoolWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolWindowTest, AvgPoolGradientIsUniformPartition) {
  const std::size_t w = GetParam();
  Rng rng(w);
  Vec x(w * 3 * w * 2);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  const PoolProbe p = probe_pool<nn::AvgPool2d>(w, w * 3, w * 2, x);
  // Gradient mass is conserved: sum(grad_in) == sum(grad_out).
  EXPECT_NEAR(p.db, p.sum_g, 1e-9);
  // Each window's gradient is spread evenly, so Σ g·x = Σ_o g_o · mean_o,
  // and mean_o is the window's own logit.
  Scalar want = 0;
  for (std::size_t o = 0; o < p.logits.size(); ++o) {
    want += (p.logits[o] - (o == 0 ? 1.0 : 0.0)) * p.logits[o];
  }
  EXPECT_NEAR(p.dw, want, 1e-9);
}

TEST_P(PoolWindowTest, MaxPoolGradientGoesToOneWinnerPerWindow) {
  const std::size_t w = GetParam();
  Rng rng(10 + w);
  Vec x(w * 2 * w * 2);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  const PoolProbe p = probe_pool<nn::MaxPool2d>(w, w * 2, w * 2, x);
  ASSERT_EQ(p.logits.size(), 4u);
  // All of each window's gradient lands on one input, the window's maximum
  // (its logit): Σ g == Σ g_o and Σ g·x == Σ g_o · max_o.
  EXPECT_NEAR(p.db, p.sum_g, 1e-12);
  Scalar want = 0;
  for (std::size_t o = 0; o < 4; ++o) {
    want += (p.logits[o] - (o == 0 ? 1.0 : 0.0)) * p.logits[o];
  }
  EXPECT_NEAR(p.dw, want, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Windows, PoolWindowTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hfl

// Tests for the individual NN layers: shapes, known values, backward-pass
// correctness against numerical differentiation (per-layer, via a one-layer
// model), and stateless-layer behaviours.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/gradcheck.h"
#include "src/nn/loss.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/sequential.h"

namespace hfl::nn {
namespace {

TEST(DenseTest, ForwardKnownValues) {
  Dense d(2, 2);
  // W = [[1, 2], [3, 4]], b = [10, 20].
  d.params()[0]->data() = {1, 2, 3, 4};
  d.params()[1]->data() = {10, 20};
  Tensor x({1, 2}, Vec{5, 6});
  Tensor y = d.forward(x, true);
  // y = x W^T + b = [5+12+10, 15+24+20].
  EXPECT_DOUBLE_EQ(y[0], 27.0);
  EXPECT_DOUBLE_EQ(y[1], 59.0);
}

TEST(DenseTest, BackwardShapes) {
  Dense d(3, 4);
  Rng rng(1);
  d.init_params(rng);
  Tensor x = Tensor::randn({5, 3}, rng);
  Tensor y = d.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{5, 4}));
  Tensor gin = d.backward(Tensor::randn({5, 4}, rng));
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(DenseTest, RejectsWrongInputWidth) {
  Dense d(3, 4);
  Tensor x({2, 5});
  EXPECT_THROW(d.forward(x, true), Error);
}

TEST(DenseTest, GradAccumulatesAcrossCalls) {
  Dense d(2, 2);
  Rng rng(2);
  d.init_params(rng);
  Tensor x = Tensor::randn({1, 2}, rng);
  Tensor g = Tensor::randn({1, 2}, rng);
  d.forward(x, true);
  d.backward(g);
  const Vec once = d.grads()[0]->data();
  d.forward(x, true);
  d.backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(d.grads()[0]->data()[i], 2 * once[i], 1e-12);
  }
  d.zero_grads();
  for (const Scalar v : d.grads()[0]->data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ReLUTest, ForwardAndBackwardMask) {
  ReLU r;
  Tensor x({1, 4}, Vec{-1, 0, 2, -3});
  Tensor y = r.forward(x, true);
  EXPECT_EQ(y.data(), (Vec{0, 0, 2, 0}));
  Tensor g({1, 4}, Vec{1, 1, 1, 1});
  Tensor gin = r.backward(g);
  EXPECT_EQ(gin.data(), (Vec{0, 0, 1, 0}));
}

TEST(TanhTest, ForwardMatchesStdTanh) {
  Tanh t;
  Tensor x({1, 3}, Vec{-1, 0, 1});
  Tensor y = t.forward(x, true);
  EXPECT_NEAR(y[0], std::tanh(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_NEAR(y[2], std::tanh(1.0), 1e-12);
}

TEST(SigmoidTest, ForwardRange) {
  Sigmoid s;
  Tensor x({1, 3}, Vec{-100, 0, 100});
  Tensor y = s.forward(x, true);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

TEST(MaxPoolTest, ForwardPicksMaxAndRoutesGradient) {
  MaxPool2d p(2);
  Tensor x({1, 1, 2, 2}, Vec{1, 5, 3, 2});
  Tensor y = p.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  Tensor g({1, 1, 1, 1}, Vec{7});
  Tensor gin = p.backward(g);
  EXPECT_EQ(gin.data(), (Vec{0, 7, 0, 0}));
}

// forward_planes scans each window in (kh, kw) order with `>`, so a tie
// (including +0 against -0) keeps the first maximum. The 2×2 window has its
// own compile-time instantiation; both it and the runtime-window scan must
// agree with that rule bit for bit.
TEST(MaxPoolTest, PlanesKeepFirstMaximumInScanOrder) {
  Rng rng(5);
  const std::size_t planes = 3, H = 12, W = 12;
  Vec x(planes * H * W);
  for (auto& v : x) {
    v = static_cast<Scalar>(static_cast<int>(rng.uniform(-3.0, 3.0)));
    if (v == 0.0 && rng.uniform(0.0, 1.0) < 0.5) v = -0.0;
  }
  for (const std::size_t window : {2, 3, 4}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const std::size_t OH = H / window, OW = W / window;
    Vec want(planes * OH * OW), got(want.size());
    std::vector<std::size_t> want_idx(want.size()), got_idx(want.size());
    std::size_t o = 0;
    for (std::size_t bc = 0; bc < planes; ++bc) {
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow, ++o) {
          std::size_t best = bc * H * W + oh * window * W + ow * window;
          for (std::size_t kh = 0; kh < window; ++kh) {
            for (std::size_t kw = 0; kw < window; ++kw) {
              const std::size_t idx =
                  bc * H * W + (oh * window + kh) * W + ow * window + kw;
              if (x[idx] > x[best]) best = idx;
            }
          }
          want[o] = x[best];
          want_idx[o] = best;
        }
      }
    }
    MaxPool2d::forward_planes(window, planes, H, W, x.data(), got.data(),
                              got_idx.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(Scalar)),
              0);
    EXPECT_EQ(want_idx, got_idx);
  }
}

TEST(MaxPoolTest, RejectsIndivisibleInput) {
  MaxPool2d p(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(p.forward(x, true), Error);
}

TEST(AvgPoolTest, ForwardAveragesAndSpreadsGradient) {
  AvgPool2d p(2);
  Tensor x({1, 1, 2, 2}, Vec{1, 2, 3, 6});
  Tensor y = p.forward(x, true);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  Tensor g({1, 1, 1, 1}, Vec{8});
  Tensor gin = p.backward(g);
  EXPECT_EQ(gin.data(), (Vec{2, 2, 2, 2}));
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten f;
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 60}));
  Tensor gin = f.backward(y);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout d(0.5);
  Rng rng(4);
  d.init_params(rng);
  Tensor x = Tensor::randn({2, 10}, rng);
  Tensor y = d.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
  Dropout d(0.5);
  Rng rng(5);
  d.init_params(rng);
  Tensor x = Tensor::full({1, 1000}, 1.0);
  Tensor y = d.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0) ++zeros;
    else EXPECT_DOUBLE_EQ(y[i], 2.0);  // 1/(1-0.5)
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 80.0);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout d(0.3);
  Rng rng(6);
  d.init_params(rng);
  Tensor x = Tensor::full({1, 100}, 1.0);
  Tensor y = d.forward(x, true);
  Tensor g = Tensor::full({1, 100}, 1.0);
  Tensor gin = d.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(gin[i], y[i]);  // mask * 1 == forward of all-ones
  }
}

TEST(DropoutTest, InvalidRateThrows) {
  EXPECT_THROW(Dropout(1.0), Error);
  EXPECT_THROW(Dropout(-0.1), Error);
}

TEST(ResidualTest, IdentityShortcutAddsInput) {
  // Inner branch = Dense(2,2) with zero weights -> output equals input.
  auto inner = std::make_unique<Dense>(2, 2);
  inner->params()[0]->fill(0.0);
  inner->params()[1]->fill(0.0);
  Residual res(std::move(inner));
  Tensor x({1, 2}, Vec{3, 4});
  Tensor y = res.forward(x, true);
  EXPECT_EQ(y.data(), (Vec{3, 4}));
}

TEST(ResidualTest, BackwardSumsBranchAndSkip) {
  // Inner = identity-weight dense => grad_in = grad(branch) + grad(skip)
  //       = W^T g + g = 2g.
  auto inner = std::make_unique<Dense>(2, 2);
  inner->params()[0]->data() = {1, 0, 0, 1};
  inner->params()[1]->fill(0.0);
  Residual res(std::move(inner));
  Tensor x({1, 2}, Vec{1, 1});
  res.forward(x, true);
  Tensor g({1, 2}, Vec{5, 7});
  Tensor gin = res.backward(g);
  EXPECT_EQ(gin.data(), (Vec{10, 14}));
}

TEST(ResidualTest, MismatchedShapesThrow) {
  auto inner = std::make_unique<Dense>(2, 3);  // changes width, no shortcut
  Rng rng(7);
  inner->init_params(rng);
  Residual res(std::move(inner));
  Tensor x({1, 2}, Vec{1, 1});
  EXPECT_THROW(res.forward(x, true), Error);
}

TEST(SequentialTest, ParamsAggregateAcrossLayers) {
  Sequential seq;
  seq.emplace<Dense>(4, 3);
  seq.emplace<ReLU>();
  seq.emplace<Dense>(3, 2);
  EXPECT_EQ(seq.num_layers(), 3u);
  EXPECT_EQ(seq.params().size(), 4u);  // two weights + two biases
  EXPECT_EQ(seq.num_params(), 4u * 3 + 3 + 3 * 2 + 2);
}

TEST(Conv2dTest, OutputShapeSamePadding) {
  Conv2d c(1, 2, 3, 1);
  Rng rng(8);
  c.init_params(rng);
  Tensor x = Tensor::randn({2, 1, 8, 8}, rng);
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 2, 8, 8}));
}

TEST(Conv2dTest, OutputShapeValidPadding) {
  Conv2d c(1, 1, 3, 0);
  Rng rng(9);
  c.init_params(rng);
  Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 6, 6}));
}

TEST(Conv2dTest, KnownConvolution) {
  // 1x1 input channel, 1 output channel, 3x3 kernel of all ones, pad 1,
  // constant input => interior outputs = 9, corners = 4, edges = 6.
  Conv2d c(1, 1, 3, 1);
  c.params()[0]->fill(1.0);
  c.params()[1]->fill(0.0);
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0);
  Tensor y = c.forward(x, true);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 1, 1}), 9.0);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 0, 1}), 6.0);
}

TEST(Conv2dTest, BiasIsAddedPerChannel) {
  Conv2d c(1, 2, 1, 0);
  c.params()[0]->fill(0.0);
  c.params()[1]->data() = {2.5, -1.5};
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.0);
  Tensor y = c.forward(x, true);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], 2.5);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(y[i], -1.5);
}

// Gradient checks: build a one-layer (plus loss) model and compare analytic
// and numeric gradients.
GradCheckResult gradcheck_model(std::unique_ptr<Sequential> net,
                                std::vector<std::size_t> sample_shape,
                                std::size_t classes, std::size_t batch,
                                std::uint64_t seed) {
  Model model(std::move(net), std::make_unique<SoftmaxCrossEntropy>(),
              sample_shape);
  Rng rng(seed);
  model.init_params(rng);
  std::vector<std::size_t> bshape{batch};
  bshape.insert(bshape.end(), sample_shape.begin(), sample_shape.end());
  Tensor x = Tensor::randn(bshape, rng);
  std::vector<std::size_t> labels(batch);
  for (auto& l : labels) l = rng.uniform_index(classes);
  return check_gradients(model, model.get_params(), x, labels, 1e-5, 150);
}

TEST(GradCheckTest, DenseLayer) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(12, 5);
  const auto r = gradcheck_model(std::move(net), {12}, 5, 4, 11);
  EXPECT_LT(r.max_rel_error, 1e-5) << "abs " << r.max_abs_error;
}

TEST(GradCheckTest, DenseReluStack) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(10, 8);
  net->emplace<ReLU>();
  net->emplace<Dense>(8, 4);
  const auto r = gradcheck_model(std::move(net), {10}, 4, 3, 12);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, TanhAndSigmoid) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(6, 6);
  net->emplace<Tanh>();
  net->emplace<Dense>(6, 6);
  net->emplace<Sigmoid>();
  net->emplace<Dense>(6, 3);
  const auto r = gradcheck_model(std::move(net), {6}, 3, 3, 13);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, Conv2dLayer) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(2, 3, 3, 1);
  net->emplace<Flatten>();
  net->emplace<Dense>(3 * 6 * 6, 4);
  const auto r = gradcheck_model(std::move(net), {2, 6, 6}, 4, 2, 14);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, Conv2dNoPadding) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(1, 2, 3, 0);
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 4 * 4, 3);
  const auto r = gradcheck_model(std::move(net), {1, 6, 6}, 3, 2, 15);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, MaxPoolStack) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(1, 2, 3, 1);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 4 * 4, 3);
  const auto r = gradcheck_model(std::move(net), {1, 8, 8}, 3, 2, 16);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, AvgPoolStack) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(1, 2, 3, 1);
  net->emplace<AvgPool2d>(4);
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 2 * 2, 3);
  const auto r = gradcheck_model(std::move(net), {1, 8, 8}, 3, 2, 17);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, ResidualIdentity) {
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Conv2d>(2, 2, 3, 1);
  inner->emplace<ReLU>();
  inner->emplace<Conv2d>(2, 2, 3, 1);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Residual>(std::move(inner)));
  net->emplace<Flatten>();
  net->emplace<Dense>(2 * 5 * 5, 3);
  const auto r = gradcheck_model(std::move(net), {2, 5, 5}, 3, 2, 18);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GradCheckTest, ResidualProjection) {
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Conv2d>(1, 3, 3, 1);
  auto shortcut = std::make_unique<Conv2d>(1, 3, 1, 0);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Residual>(std::move(inner), std::move(shortcut)));
  net->emplace<Flatten>();
  net->emplace<Dense>(3 * 5 * 5, 3);
  const auto r = gradcheck_model(std::move(net), {1, 5, 5}, 3, 2, 19);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

}  // namespace
}  // namespace hfl::nn

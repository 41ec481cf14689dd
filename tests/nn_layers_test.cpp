// Tests for the NN layers as the compiled plan runs them: hand-computed
// forward and backward values through small plans, shape checks at plan
// compilation, and every stage kind against numerical differentiation.
//
// The plan exposes a stage's input gradient only through a parametric stage
// before it, so backward cases put one in front — often a 1×1 convolution
// with weight 1 and bias 0, which passes its input through unchanged and
// whose weight gradient Σ g·x and bias gradient Σ g read the routed
// gradient back out.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/activations.h"
#include "src/nn/cohort.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/gradcheck.h"
#include "src/nn/loss.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/nn/sequential.h"

namespace hfl::nn {
namespace {

// A model of `net` over samples of `shape` under the MSE loss, whose logit
// gradient is (logits − onehot) / B: hand-computable.
Model mse_model(std::unique_ptr<Sequential> net,
                std::vector<std::size_t> shape) {
  return Model(std::move(net), std::make_unique<MseOnOneHot>(),
               std::move(shape));
}

// Logits of the samples at `x` under `params`.
Tensor predict(const Model& model, const Vec& params, const Vec& x) {
  const auto plan = CohortModel::create(model);
  Tensor out;
  plan->predict(params.data(), x.data(), x.size() / plan->sample_elems(),
                out);
  return out;
}

// Flat gradient of the mean loss over the samples at `x`.
Vec gradient(const Model& model, const Vec& params, const Vec& x,
             const std::vector<std::size_t>& labels) {
  const auto plan = CohortModel::create(model);
  Vec grad(params.size());
  CohortItem item;
  item.params = params.data();
  item.x = x.data();
  item.y = &labels;
  item.grad = grad.data();
  plan->gradient({&item, 1});
  return grad;
}

std::unique_ptr<Sequential> chain() { return std::make_unique<Sequential>(); }

TEST(DenseTest, ForwardKnownValues) {
  auto net = chain();
  net->emplace<Dense>(2, 2);
  const Model model = mse_model(std::move(net), {2});
  // W = [[1, 2], [3, 4]], b = [10, 20]; y = x W^T + b = [5+12+10, 15+24+20].
  const Tensor y = predict(model, {1, 2, 3, 4, 10, 20}, {5, 6});
  EXPECT_EQ(y.data(), (Vec{27, 59}));
}

TEST(DenseTest, BackwardKnownValues) {
  auto net = chain();
  net->emplace<Dense>(2, 2);
  const Model model = mse_model(std::move(net), {2});
  // Logits [27, 59], label 0: g = [26, 59]; dW = gᵀ x, db = g.
  const Vec grad = gradient(model, {1, 2, 3, 4, 10, 20}, {5, 6}, {0});
  EXPECT_EQ(grad, (Vec{130, 156, 295, 354, 26, 59}));
}

TEST(DenseTest, RejectsWrongInputWidth) {
  auto net = chain();
  net->emplace<Dense>(3, 4);
  EXPECT_THROW(CohortModel::create(mse_model(std::move(net), {5})), Error);
}

// ReLU inputs [-1, 0, 2, -3] (a Dense(1, 4) of x = 1): the forward clamps
// them at 0, and the backward masks every input ≤ 0 — the 0 included.
TEST(ReLUTest, ForwardAndBackwardMask) {
  auto net = chain();
  net->emplace<Dense>(1, 4);
  net->emplace<ReLU>();
  const Model model = mse_model(std::move(net), {1});
  const Vec params{-1, 0, 2, -3, 0, 0, 0, 0};
  EXPECT_EQ(predict(model, params, {1}).data(), (Vec{0, 0, 2, 0}));
  // Two samples of x = 1, labels 0 and 1: the logit gradients are
  // [-0.5, 0, 1, 0] and [0, -0.5, 1, 0]; only the input 2 passes.
  const Vec grad = gradient(model, params, {1, 1}, {0, 1});
  EXPECT_EQ(grad, (Vec{0, 0, 2, 0, 0, 0, 2, 0}));
}

// A 2×4 plane, two 2×2 windows. Channel 0 carries the values, channel 1 a
// position tag 1..8; the front 1×1 convolution keeps channel 0 (weights
// [1, 0]), so its channel-1 weight gradient Σ g·tag names the inputs the
// pool routed the gradient to.
TEST(MaxPoolTest, ForwardPicksMaxAndRoutesGradientToFirstMaximum) {
  auto net = chain();
  net->emplace<Conv2d>(2, 1, 1, 0);
  net->emplace<MaxPool2d>(2);
  net->emplace<Flatten>();
  const Model model = mse_model(std::move(net), {2, 2, 4});
  const Vec params{1, 0, 0};
  // Window A (columns 0-1) peaks at tag 2; window B (columns 2-3) ties at 3
  // on tags 3, 4 and 8, and keeps the first in scan order, tag 3.
  const Vec x{1, 5, 3, 3,   //
              3, 2, 1, 3,   //
              1, 2, 3, 4,   //
              5, 6, 7, 8};
  EXPECT_EQ(predict(model, params, x).data(), (Vec{5, 3}));
  // Label 0: g = [4, 3]. dW = [4·5 + 3·3, 4·2 + 3·3], db = 4 + 3.
  EXPECT_EQ(gradient(model, params, x, {0}), (Vec{29, 17, 7}));
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
  auto net = chain();
  net->emplace<MaxPool2d>(2);
  net->emplace<Flatten>();
  net->emplace<Dense>(2, 2);
  EXPECT_THROW(CohortModel::create(mse_model(std::move(net), {1, 3, 4})),
               Error);
}

TEST(AvgPoolTest, ForwardAveragesAndSpreadsGradient) {
  auto net = chain();
  net->emplace<Conv2d>(1, 1, 1, 0);
  net->emplace<AvgPool2d>(2);
  net->emplace<Flatten>();
  const Model model = mse_model(std::move(net), {1, 2, 2});
  const Vec params{1, 0};
  const Vec x{1, 2, 3, 6};
  EXPECT_EQ(predict(model, params, x).data(), (Vec{3}));
  // Label 0: g = 2, spread as 0.5 over the window. dW = 0.5·(1+2+3+6).
  EXPECT_EQ(gradient(model, params, x, {0}), (Vec{6, 2}));
}

TEST(AvgPoolTest, RejectsIndivisibleInput) {
  auto net = chain();
  net->emplace<AvgPool2d>(3);
  net->emplace<Flatten>();
  net->emplace<Dense>(4, 2);
  EXPECT_THROW(CohortModel::create(mse_model(std::move(net), {1, 6, 4})),
               Error);
}

// A Flatten hands the next stage the product of its input shape.
TEST(FlattenTest, FeedsTheProductOfItsInputShape) {
  auto fits = chain();
  fits->emplace<Flatten>();
  fits->emplace<Dense>(60, 3);
  EXPECT_NO_THROW(CohortModel::create(mse_model(std::move(fits), {3, 4, 5})));
  auto wrong = chain();
  wrong->emplace<Flatten>();
  wrong->emplace<Dense>(20, 3);
  EXPECT_THROW(CohortModel::create(mse_model(std::move(wrong), {3, 4, 5})),
               Error);
}

TEST(ResidualTest, IdentityShortcutAddsInput) {
  // Inner branch = Dense(2,2) with zero weights -> output equals input.
  auto net = chain();
  net->add(std::make_unique<Residual>(std::make_unique<Dense>(2, 2)));
  const Model model = mse_model(std::move(net), {2});
  EXPECT_EQ(predict(model, Vec(6, 0.0), {3, 4}).data(), (Vec{3, 4}));
}

// An identity Dense in front, then a block whose inner branch is an
// identity Dense: the block doubles its input, and its input gradient is
// grad(branch) + grad(skip) = Wᵀg + g = 2g.
TEST(ResidualTest, BackwardSumsBranchAndSkip) {
  auto net = chain();
  net->emplace<Dense>(2, 2);
  net->add(std::make_unique<Residual>(std::make_unique<Dense>(2, 2)));
  const Model model = mse_model(std::move(net), {2});
  const Vec params{1, 0, 0, 1, 0, 0,   // front Dense
                   1, 0, 0, 1, 0, 0};  // inner Dense
  EXPECT_EQ(predict(model, params, {1, 1}).data(), (Vec{2, 2}));
  // Label 0: g = [1, 2]. Inner: dW = g hᵀ with h = [1, 1], db = g. Front:
  // its output gradient is 2g = [2, 4], so dW = 2g xᵀ, db = 2g.
  EXPECT_EQ(gradient(model, params, {1, 1}, {0}),
            (Vec{2, 2, 4, 4, 2, 4, 1, 1, 2, 2, 1, 2}));
}

// A projection block's parameters are laid out as Residual::params() gives
// them, inner branch first: inner A then ReLU, shortcut S, x = [1, 2].
TEST(ResidualTest, ProjectionParamsFollowInnerThenShortcut) {
  auto inner = chain();
  inner->emplace<Dense>(2, 2);
  inner->emplace<ReLU>();
  auto net = chain();
  net->add(std::make_unique<Residual>(std::move(inner),
                                      std::make_unique<Dense>(2, 2)));
  const Model model = mse_model(std::move(net), {2});
  const Vec params{1, 0, 0, -1, 0, 0,   // A = [[1, 0], [0, -1]], b = 0
                   0, 1, 1, 0, 0, 0};   // S = [[0, 1], [1, 0]], b = 0
  // relu(Ax) + Sx = [1, 0] + [2, 1].
  EXPECT_EQ(predict(model, params, {1, 2}).data(), (Vec{3, 1}));
  // Label 0: g = [2, 1]. The ReLU passes only A's first row: dA = [2, 0]ᵀx,
  // db_A = [2, 0]; dS = g xᵀ, db_S = g.
  EXPECT_EQ(gradient(model, params, {1, 2}, {0}),
            (Vec{2, 4, 0, 0, 2, 0, 2, 4, 1, 2, 2, 1}));
}

TEST(ResidualTest, MismatchedShapesThrow) {
  auto net = chain();
  // Changes the width, with no shortcut to match it.
  net->add(std::make_unique<Residual>(std::make_unique<Dense>(2, 3)));
  EXPECT_THROW(CohortModel::create(mse_model(std::move(net), {2})), Error);
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

// A convolution followed by a Flatten: predict's row width is the
// convolution's output size.
std::size_t conv_logits(std::size_t pad) {
  auto net = chain();
  net->emplace<Conv2d>(1, 2, 3, pad);
  net->emplace<Flatten>();
  const Model model = mse_model(std::move(net), {1, 8, 8});
  Rng rng(8);
  Vec x(2 * 64), params(model.num_params());
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  for (auto& v : params) v = rng.normal(0.0, 1.0);
  const Tensor y = predict(model, params, x);
  EXPECT_EQ(y.dim(0), 2u);
  return y.dim(1);
}

TEST(Conv2dTest, OutputShapeSamePadding) {
  EXPECT_EQ(conv_logits(1), 2u * 8 * 8);
}

TEST(Conv2dTest, OutputShapeValidPadding) {
  EXPECT_EQ(conv_logits(0), 2u * 6 * 6);
}

TEST(Conv2dTest, KnownConvolution) {
  // 1x1 input channel, 1 output channel, 3x3 kernel of all ones, pad 1,
  // constant input => interior outputs = 9, corners = 4, edges = 6.
  auto net = chain();
  net->emplace<Conv2d>(1, 1, 3, 1);
  net->emplace<Flatten>();
  const Model model = mse_model(std::move(net), {1, 3, 3});
  Vec params(10, 1.0);
  params[9] = 0.0;  // bias
  EXPECT_EQ(predict(model, params, Vec(9, 1.0)).data(),
            (Vec{4, 6, 4, 6, 9, 6, 4, 6, 4}));
}

TEST(Conv2dTest, BiasIsAddedPerChannel) {
  auto net = chain();
  net->emplace<Conv2d>(1, 2, 1, 0);
  net->emplace<Flatten>();
  const Model model = mse_model(std::move(net), {1, 2, 2});
  const Tensor y = predict(model, {0, 0, 2.5, -1.5}, Vec(4, 1.0));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], 2.5);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(y[i], -1.5);
}

// Gradient checks: the plan's gradient of a small model (plus loss)
// against central finite differences, for every stage kind and both losses.
GradCheckResult gradcheck_model(
    std::unique_ptr<Sequential> net, std::vector<std::size_t> sample_shape,
    std::size_t classes, std::size_t batch, std::uint64_t seed,
    LossPtr loss = std::make_shared<SoftmaxCrossEntropy>()) {
  Model model(std::move(net), std::move(loss), sample_shape);
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

TEST(GradCheckTest, MseOnOneHotLoss) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(6, 6);
  net->emplace<ReLU>();
  net->emplace<Dense>(6, 3);
  const auto r = gradcheck_model(std::move(net), {6}, 3, 3, 13,
                                 std::make_shared<MseOnOneHot>());
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

// The pooling's input gradient is only formed when a parametric stage sits
// before it: conv → pool → conv reads it through the first conv's gradient.
// The softmax saturates on this batch, so some entries are ~1e-9, where a
// relative error measures finite-difference rounding; the absolute error
// bounds misrouted gradient, which would be the size of the gradient.
TEST(GradCheckTest, PoolInputGradients) {
  for (const bool max : {true, false}) {
    SCOPED_TRACE(max ? "maxpool" : "avgpool");
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(1, 2, 3, 1);
    if (max) {
      net->emplace<MaxPool2d>(2);
    } else {
      net->emplace<AvgPool2d>(2);
    }
    net->emplace<Conv2d>(2, 2, 3, 1);
    net->emplace<Flatten>();
    net->emplace<Dense>(2 * 4 * 4, 3);
    const auto r = gradcheck_model(std::move(net), {1, 8, 8}, 3, 2, 20);
    EXPECT_LT(r.max_abs_error, 1e-7);
  }
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

// Tests for losses, evaluate_predictions, the Model flat-parameter
// interface, and the model zoo. Loss values are read through
// nn::evaluate_predictions; loss gradients through the compiled plan, where
// a one-sample batch's logit gradient is the bias gradient of a layer that
// passes the logits through.
#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/cohort.h"
#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/gradcheck.h"
#include "src/nn/models.h"

namespace hfl::nn {
namespace {

Scalar mean_loss(const Loss& loss, const Tensor& pred,
                 const std::vector<std::size_t>& labels) {
  return evaluate_predictions(loss, pred, labels).loss;
}

// d(loss)/d(logits) of one sample with these K logits, from the plan: a
// Dense(K, K) with identity weights and zero bias passes the logits
// through unchanged, and for a batch of one its bias gradient is the
// gradient with respect to the logits.
Vec logit_gradient(LossPtr loss, const Vec& logits, std::size_t label) {
  const std::size_t K = logits.size();
  auto net = std::make_unique<Sequential>();
  net->emplace<Dense>(K, K);
  const Model model(std::move(net), std::move(loss), {K});
  const auto plan = CohortModel::create(model);
  Vec params(model.num_params(), 0.0);
  for (std::size_t j = 0; j < K; ++j) params[j * K + j] = 1.0;
  const std::vector<std::size_t> y{label};
  Vec grad(params.size());
  CohortItem item;
  item.params = params.data();
  item.x = logits.data();
  item.y = &y;
  item.grad = grad.data();
  plan->gradient({&item, 1});
  return Vec(grad.end() - static_cast<std::ptrdiff_t>(K), grad.end());
}

// Central differences of the evaluated loss against the plan's gradient.
void expect_numerical_logit_gradient(LossPtr loss, const Vec& logits,
                                     std::size_t label) {
  const Vec g = logit_gradient(loss, logits, label);
  const Scalar eps = 1e-6;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    Tensor p({1, logits.size()}, logits);
    p[j] += eps;
    const Scalar up = mean_loss(*loss, p, {label});
    p[j] -= 2 * eps;
    const Scalar down = mean_loss(*loss, p, {label});
    EXPECT_NEAR((up - down) / (2 * eps), g[j], 1e-6) << "logit " << j;
  }
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss;
  Tensor pred({2, 4});  // all-zero logits -> uniform softmax
  EXPECT_NEAR(mean_loss(loss, pred, {0, 3}), std::log(4.0), 1e-12);
}

TEST(SoftmaxCrossEntropyTest, ConfidentCorrectPredictionLowLoss) {
  SoftmaxCrossEntropy loss;
  Tensor pred({1, 3}, Vec{20, 0, 0});
  EXPECT_LT(mean_loss(loss, pred, {0}), 1e-6);
  EXPECT_GT(mean_loss(loss, pred, {1}), 10.0);
}

TEST(SoftmaxCrossEntropyTest, GradientIsProbabilitiesMinusOneHot) {
  const Vec logits{0.3, -1.2, 2.0, 0.5, -0.1};
  const Vec g =
      logit_gradient(std::make_shared<SoftmaxCrossEntropy>(), logits, 2);
  Scalar denom = 0;
  for (const Scalar v : logits) denom += std::exp(v);
  Scalar row_sum = 0;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    const Scalar want = std::exp(logits[j]) / denom - (j == 2 ? 1.0 : 0.0);
    EXPECT_NEAR(g[j], want, 1e-12) << "logit " << j;
    row_sum += g[j];
  }
  EXPECT_NEAR(row_sum, 0.0, 1e-12);  // softmax-CE grad rows sum to zero
}

TEST(SoftmaxCrossEntropyTest, NumericalGradient) {
  expect_numerical_logit_gradient(std::make_shared<SoftmaxCrossEntropy>(),
                                  {0.4, -0.7, 1.1, 0.2}, 1);
  expect_numerical_logit_gradient(std::make_shared<SoftmaxCrossEntropy>(),
                                  {-0.3, 0.9, -1.5, 0.6}, 3);
}

TEST(MseOnOneHotTest, PerfectPredictionZeroLoss) {
  MseOnOneHot loss;
  Tensor pred({2, 3}, Vec{1, 0, 0, 0, 0, 1});
  EXPECT_DOUBLE_EQ(mean_loss(loss, pred, {0, 2}), 0.0);
}

TEST(MseOnOneHotTest, KnownValue) {
  MseOnOneHot loss;
  Tensor pred({1, 2}, Vec{0, 0});
  // 0.5 * ((0-1)^2 + 0^2) = 0.5
  EXPECT_DOUBLE_EQ(mean_loss(loss, pred, {0}), 0.5);
}

TEST(MseOnOneHotTest, GradientIsPredictionMinusOneHot) {
  const Vec g =
      logit_gradient(std::make_shared<MseOnOneHot>(), {0.5, -2.0, 3.0}, 0);
  EXPECT_EQ(g, (Vec{-0.5, -2.0, 3.0}));
}

TEST(MseOnOneHotTest, NumericalGradient) {
  expect_numerical_logit_gradient(std::make_shared<MseOnOneHot>(),
                                  {0.8, -0.4, 0.1}, 2);
  expect_numerical_logit_gradient(std::make_shared<MseOnOneHot>(),
                                  {-1.3, 0.2, 0.7}, 0);
}

TEST(LossTest, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss;
  Tensor pred({1, 3});
  EXPECT_THROW(evaluate_predictions(loss, pred, {3}), Error);
  EXPECT_THROW(evaluate_predictions(loss, pred, {0, 1}), Error);
  EXPECT_THROW(
      logit_gradient(std::make_shared<SoftmaxCrossEntropy>(), {0, 0, 0}, 3),
      Error);
}

TEST(EvaluatePredictionsTest, AccuracyReadsRowArgmax) {
  SoftmaxCrossEntropy loss;
  Tensor pred({2, 3}, Vec{0.1, 0.9, 0.5, 2.0, -1.0, 1.5});
  EXPECT_DOUBLE_EQ(evaluate_predictions(loss, pred, {1, 0}).accuracy, 1.0);
  EXPECT_DOUBLE_EQ(evaluate_predictions(loss, pred, {1, 2}).accuracy, 0.5);
  EXPECT_DOUBLE_EQ(evaluate_predictions(loss, pred, {2, 1}).accuracy, 0.0);
}

// Ties go to the lowest class index: a row of equal logits is correct only
// for label 0.
TEST(EvaluatePredictionsTest, ArgmaxTieBreaksToFirst) {
  SoftmaxCrossEntropy loss;
  Tensor pred({3, 3}, Vec{1, 1, 1, 1, 1, 1, 0, 2, 2});
  EXPECT_DOUBLE_EQ(evaluate_predictions(loss, pred, {0, 1, 1}).accuracy,
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(evaluate_predictions(loss, pred, {2, 2, 2}).accuracy, 0.0);
}

std::unique_ptr<Model> tiny_model() {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Dense>(4, 3);
  return std::make_unique<Model>(std::move(net),
                                 std::make_unique<SoftmaxCrossEntropy>(),
                                 std::vector<std::size_t>{4});
}

TEST(ModelTest, ParamRoundTrip) {
  auto model = tiny_model();
  Rng rng(4);
  model->init_params(rng);
  EXPECT_EQ(model->num_params(), 4u * 3 + 3);
  Vec p = model->get_params();
  for (auto& v : p) v += 1.0;
  model->set_params(p);
  EXPECT_EQ(model->get_params(), p);
}

TEST(ModelTest, SetParamsSizeMismatchThrows) {
  auto model = tiny_model();
  Vec wrong(7, 0.0);
  EXPECT_THROW(model->set_params(wrong), Error);
}

TEST(ModelTest, GradientIsDeterministic) {
  auto model = tiny_model();
  Rng rng(5);
  model->init_params(rng);
  const auto plan = CohortModel::create(*model);
  const Vec p = model->get_params();
  Tensor x = Tensor::randn({4, 4}, rng);
  const std::vector<std::size_t> y{0, 1, 2, 0};
  Vec g1(p.size()), g2(p.size(), 3.0);
  for (Vec* g : {&g1, &g2}) {
    CohortItem item;
    item.params = p.data();
    item.x = x.raw();
    item.y = &y;
    item.grad = g->data();
    plan->gradient({&item, 1});
  }
  EXPECT_EQ(g1, g2);
}

TEST(ModelTest, EvaluatePerfectAndChance) {
  auto model = tiny_model();
  const auto plan = CohortModel::create(*model);
  // Weights that copy feature i to logit i (features 0..2).
  Vec p(model->num_params(), 0.0);
  p[0] = 10;   // W(0,0)
  p[5] = 10;   // W(1,1)
  p[10] = 10;  // W(2,2)
  Tensor x({3, 4});
  x.at({0, 0}) = 1;
  x.at({1, 1}) = 1;
  x.at({2, 2}) = 1;
  Tensor pred;
  plan->predict(p.data(), x.raw(), 3, pred);
  const EvalResult r = evaluate_predictions(plan->loss(), pred, {0, 1, 2});
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_LT(r.loss, 1e-3);
}

class ModelZooTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelZooTest, BuildsRunsAndRoundTrips) {
  const ModelKind kind = GetParam();
  const std::vector<std::size_t> shape =
      kind == ModelKind::kMiniVgg || kind == ModelKind::kMiniResNet
          ? std::vector<std::size_t>{3, 8, 8}
          : std::vector<std::size_t>{1, 8, 8};
  auto factory = make_model_factory(kind, shape, 4);
  auto model = factory();
  Rng rng(7);
  model->init_params(rng);
  EXPECT_GT(model->num_params(), 0u);

  std::vector<std::size_t> bshape{2};
  bshape.insert(bshape.end(), shape.begin(), shape.end());
  Tensor x = Tensor::randn(bshape, rng);
  const std::vector<std::size_t> labels{0, 3};
  const Vec params = model->get_params();
  Vec grad(model->num_params());
  CohortItem item;
  item.params = params.data();
  item.x = x.raw();
  item.y = &labels;
  item.grad = grad.data();
  CohortModel::create(*model)->gradient({&item, 1});
  EXPECT_TRUE(std::isfinite(item.loss));
  Scalar norm = 0;
  for (const Scalar g : grad) norm += g * g;
  EXPECT_GT(norm, 0.0);

  // Factory instances are independent.
  auto other = factory();
  EXPECT_EQ(other->num_params(), model->num_params());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZooTest,
    ::testing::Values(ModelKind::kLinearRegression,
                      ModelKind::kLogisticRegression, ModelKind::kMlp,
                      ModelKind::kCnn, ModelKind::kMiniVgg,
                      ModelKind::kMiniResNet),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return to_string(info.param);
    });

TEST(ModelZooTest, GradCheckCnn) {
  auto factory = cnn({1, 8, 8}, 3);
  auto model = factory();
  Rng rng(8);
  model->init_params(rng);
  Tensor x = Tensor::randn({2, 1, 8, 8}, rng);
  const GradCheckResult r =
      check_gradients(*model, model->get_params(), x, {0, 2}, 1e-5, 120);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(ModelZooTest, GradCheckMiniResNet) {
  auto factory = mini_resnet({1, 8, 8}, 3);
  auto model = factory();
  Rng rng(9);
  model->init_params(rng);
  Tensor x = Tensor::randn({2, 1, 8, 8}, rng);
  const GradCheckResult r =
      check_gradients(*model, model->get_params(), x, {1, 2}, 1e-5, 120);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(ModelZooTest, GradCheckLinearRegression) {
  auto factory = linear_regression({1, 4, 4}, 3);
  auto model = factory();
  Rng rng(10);
  model->init_params(rng);
  Tensor x = Tensor::randn({3, 1, 4, 4}, rng);
  const GradCheckResult r =
      check_gradients(*model, model->get_params(), x, {0, 1, 2}, 1e-5, 60);
  EXPECT_LT(r.max_rel_error, 1e-5);
}

TEST(ModelZooTest, CnnRejectsBadGeometry) {
  EXPECT_THROW(cnn({1, 7, 7}, 10), Error);        // not divisible by 4
  EXPECT_THROW(mini_vgg({3, 12, 12}, 10), Error); // not divisible by 8
  EXPECT_THROW(mini_resnet({3, 8, 12}, 10), Error);  // not square
}

}  // namespace
}  // namespace hfl::nn

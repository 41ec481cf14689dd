// Tests for the shared worker-update primitives (core/nag): the NAG update
// algebra of Algorithm 1 lines 5–6, the interval accumulators of line 9, the
// SGD fallback, and the fused vec::nag_step / nag_step_accumulate kernels
// against a scalar std::fma reference.
#include "src/core/nag.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/vec_ops.h"
#include "src/data/synthetic.h"
#include "src/nn/cohort.h"
#include "src/nn/models.h"

namespace hfl::core {
namespace {

// A worker whose batcher replays one fixed sample, so gradients are a pure
// function of the parameters and the update can be checked by hand.
struct FixedWorker {
  data::TrainTest data;
  std::unique_ptr<nn::CohortModel> plan;
  fl::WorkerState w;

  FixedWorker() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 2;
    spec.train_size = 1;
    spec.test_size = 1;
    data = data::make_synthetic(rng, spec);

    auto model = nn::logistic_regression({1, 2, 2}, 2)();
    plan = nn::CohortModel::create(*model);
    w.plan = plan.get();
    Rng init(5);
    model->init_params(init);
    const Vec x0 = model->get_params();
    const std::size_t n = x0.size();
    w.x = x0;
    w.y = x0;
    w.sum_grad.assign(n, 0.0);
    w.sum_y.assign(n, 0.0);
    w.sum_v.assign(n, 0.0);
    w.batcher = std::make_unique<data::Batcher>(
        data.train, std::vector<std::size_t>{0}, 1, Rng(7));
    w.aux_batcher = std::make_unique<data::Batcher>(
        data.train, std::vector<std::size_t>{0}, 1, Rng(8));
  }

  // Gradient of the (single-sample) local loss at arbitrary params.
  Vec gradient_at(const Vec& params) {
    Tensor x;
    std::vector<std::size_t> y;
    data.train.gather(std::vector<std::size_t>{0}, x, y);
    Vec g(params.size());
    nn::CohortItem item;
    item.params = params.data();
    item.x = x.raw();
    item.y = &y;
    item.grad = g.data();
    plan->gradient({&item, 1});
    return g;
  }
};

TEST(NagStepTest, MatchesHandComputedUpdate) {
  FixedWorker f;
  const Scalar eta = 0.1, gamma = 0.5;
  const Vec x_prev = f.w.x;
  const Vec y_prev = f.w.y;
  const Vec g = f.gradient_at(x_prev);

  nag_local_step(f.w, eta, gamma, /*accumulate=*/false);

  for (std::size_t i = 0; i < x_prev.size(); ++i) {
    const Scalar y_new = x_prev[i] - eta * g[i];
    EXPECT_NEAR(f.w.y[i], y_new, 1e-12);
    // Line 6: x = y + γ(y − y_prev), the velocity never stored.
    EXPECT_NEAR(f.w.x[i], f.w.y[i] + gamma * (f.w.y[i] - y_prev[i]), 1e-12);
    EXPECT_NEAR(f.w.grad()[i], g[i], 1e-12);
  }
}

TEST(NagStepTest, AccumulatorsFollowLine9) {
  FixedWorker f;
  const Scalar eta = 0.05, gamma = 0.5;
  Vec expected_sum_grad(f.w.x.size(), 0.0);
  Vec expected_sum_y(f.w.x.size(), 0.0);
  Vec expected_sum_v(f.w.x.size(), 0.0);

  for (int step = 0; step < 3; ++step) {
    const Vec g = f.gradient_at(f.w.x);   // gradient at pre-update x
    const Vec y_pre = f.w.y;              // pre-update momentum parameter
    nag_local_step(f.w, eta, gamma, /*accumulate=*/true);
    for (std::size_t i = 0; i < g.size(); ++i) {
      expected_sum_grad[i] += g[i];
      expected_sum_y[i] += y_pre[i];
      expected_sum_v[i] += f.w.y[i] - y_pre[i];  // post-update velocity
    }
  }
  for (std::size_t i = 0; i < f.w.x.size(); ++i) {
    EXPECT_NEAR(f.w.sum_grad[i], expected_sum_grad[i], 1e-12);
    EXPECT_NEAR(f.w.sum_y[i], expected_sum_y[i], 1e-12);
    EXPECT_NEAR(f.w.sum_v[i], expected_sum_v[i], 1e-12);
  }
}

TEST(NagStepTest, EmptyVelocitySumStaysEmpty) {
  // Only HierAdMo's kVelocity signal sizes Σv; otherwise the accumulating
  // step must neither size nor touch it, and the other sums are unchanged.
  FixedWorker with_v, without_v;
  without_v.w.sum_v.clear();
  for (int step = 0; step < 3; ++step) {
    nag_local_step(with_v.w, 0.05, 0.5, /*accumulate=*/true);
    nag_local_step(without_v.w, 0.05, 0.5, /*accumulate=*/true);
  }
  EXPECT_TRUE(without_v.w.sum_v.empty());
  EXPECT_EQ(with_v.w.x, without_v.w.x);
  EXPECT_EQ(with_v.w.y, without_v.w.y);
  EXPECT_EQ(with_v.w.sum_grad, without_v.w.sum_grad);
  EXPECT_EQ(with_v.w.sum_y, without_v.w.sum_y);
}

TEST(NagStepTest, NoAccumulationWhenDisabled) {
  FixedWorker f;
  nag_local_step(f.w, 0.1, 0.5, /*accumulate=*/false);
  for (const Scalar v : f.w.sum_grad) EXPECT_DOUBLE_EQ(v, 0.0);
  for (const Scalar v : f.w.sum_y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NagStepTest, GammaZeroIsSgd) {
  FixedWorker f1, f2;
  for (int step = 0; step < 4; ++step) {
    nag_local_step(f1.w, 0.1, 0.0, false);
    sgd_local_step(f2.w, 0.1);
  }
  for (std::size_t i = 0; i < f1.w.x.size(); ++i) {
    EXPECT_NEAR(f1.w.x[i], f2.w.x[i], 1e-12);
  }
}

TEST(SgdStepTest, MatchesHandComputedUpdate) {
  FixedWorker f;
  const Vec x_prev = f.w.x;
  const Vec g = f.gradient_at(x_prev);
  sgd_local_step(f.w, 0.2);
  for (std::size_t i = 0; i < x_prev.size(); ++i) {
    EXPECT_NEAR(f.w.x[i], x_prev[i] - 0.2 * g[i], 1e-12);
  }
}

TEST(NagStepTest, ReturnsBatchLoss) {
  FixedWorker f;
  const Scalar loss = nag_local_step(f.w, 0.1, 0.5, false);
  EXPECT_GT(loss, 0.0);
  EXPECT_EQ(loss, f.w.last_loss);
}

TEST(NagStepTest, MomentumAcceleratesOnConsistentGradients) {
  // Property: with a fixed gradient field (single repeated sample), τ NAG
  // steps travel further than τ SGD steps of the same η.
  FixedWorker nag, sgd;
  const Vec x0 = nag.w.x;
  for (int step = 0; step < 10; ++step) {
    nag_local_step(nag.w, 0.05, 0.7, false);
    sgd_local_step(sgd.w, 0.05);
  }
  Scalar nag_dist = 0, sgd_dist = 0;
  for (std::size_t i = 0; i < x0.size(); ++i) {
    nag_dist += (nag.w.x[i] - x0[i]) * (nag.w.x[i] - x0[i]);
    sgd_dist += (sgd.w.x[i] - x0[i]) * (sgd.w.x[i] - x0[i]);
  }
  EXPECT_GT(nag_dist, sgd_dist);
}

TEST(WorkerStateTest, ResetClearsAccumulators) {
  FixedWorker f;
  nag_local_step(f.w, 0.1, 0.5, true);
  f.w.reset_interval_accumulators();
  for (const Scalar v : f.w.sum_grad) EXPECT_DOUBLE_EQ(v, 0.0);
  for (const Scalar v : f.w.sum_y) EXPECT_DOUBLE_EQ(v, 0.0);
  for (const Scalar v : f.w.sum_v) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(WorkerStateTest, ProbeGradientDoesNotDisturbMainStream) {
  FixedWorker a, b;
  Vec probe;
  a.w.probe_gradient(a.w.x, probe);  // uses aux stream only
  nag_local_step(a.w, 0.1, 0.5, false);
  nag_local_step(b.w, 0.1, 0.5, false);
  for (std::size_t i = 0; i < a.w.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.w.x[i], b.w.x[i]);
  }
}

// ---------------------------------------------------------------------------
// Fused kernels ≡ scalar std::fma reference
// ---------------------------------------------------------------------------

// Bitwise equality that tells +0 from −0 (empty vectors have no data()).
bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0);
}

Vec kernel_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (Scalar& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

constexpr Scalar kEta = 0.05, kGamma = 0.9;

// n = 1…9 covers a scalar tail alone, one and two vector bodies, and every
// tail length behind them.
TEST(NagKernelTest, NagStepMatchesScalarFmaReference) {
  for (std::size_t n = 1; n <= 9; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Vec x = kernel_vec(n, 10 + n), y = kernel_vec(n, 20 + n);
    const Vec g = kernel_vec(n, 30 + n);
    Vec xr = x, yr = y;
    vec::nag_step(x, y, g, kEta, kGamma);
    for (std::size_t i = 0; i < n; ++i) {
      const Scalar y_new = std::fma(-kEta, g[i], xr[i]);
      const Scalar v = y_new - yr[i];
      yr[i] = y_new;
      xr[i] = std::fma(kGamma, v, y_new);
    }
    EXPECT_TRUE(same_bits(x, xr));
    EXPECT_TRUE(same_bits(y, yr));
  }
}

TEST(NagKernelTest, NagStepAccumulateMatchesScalarFmaReference) {
  for (const bool velocity : {false, true}) {
    for (std::size_t n = 1; n <= 9; ++n) {
      SCOPED_TRACE("n = " + std::to_string(n) +
                   (velocity ? ", with Σv" : ", without Σv"));
      Vec x = kernel_vec(n, 10 + n), y = kernel_vec(n, 20 + n);
      const Vec g = kernel_vec(n, 30 + n);
      Vec sg = kernel_vec(n, 40 + n), sy = kernel_vec(n, 50 + n);
      Vec sv = velocity ? kernel_vec(n, 60 + n) : Vec{};
      Vec xr = x, yr = y, sgr = sg, syr = sy, svr = sv;
      vec::nag_step_accumulate(x, y, g, kEta, kGamma, sg, sy, sv);
      for (std::size_t i = 0; i < n; ++i) {
        sgr[i] += g[i];
        syr[i] += yr[i];
        const Scalar y_new = std::fma(-kEta, g[i], xr[i]);
        const Scalar v = y_new - yr[i];
        yr[i] = y_new;
        xr[i] = std::fma(kGamma, v, y_new);
        if (velocity) svr[i] += v;
      }
      EXPECT_TRUE(same_bits(x, xr));
      EXPECT_TRUE(same_bits(y, yr));
      EXPECT_TRUE(same_bits(sg, sgr));
      EXPECT_TRUE(same_bits(sy, syr));
      EXPECT_TRUE(same_bits(sv, svr));
    }
  }
}

TEST(NagKernelTest, VelocitySumMustBeEmptyOrFull) {
  Vec x(5, 0.0), y(5, 0.0), g(5, 1.0), sg(5, 0.0), sy(5, 0.0), sv(3, 0.0);
  EXPECT_THROW(vec::nag_step_accumulate(x, y, g, kEta, kGamma, sg, sy, sv),
               Error);
}

}  // namespace
}  // namespace hfl::core

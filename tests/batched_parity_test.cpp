// Fused cohort path vs per-worker path: end-to-end bit-identity.
//
// RunConfig::batched routes every active worker's gradient through one
// batched forward/backward (src/nn/cohort.h) instead of per-worker model
// calls. The contract is that nothing observable changes in FP64: for every
// registry algorithm (plus both Mime variants), with and without a fault
// schedule, at 1 and 4 threads, the batched run must reproduce the
// per-worker run exactly — accuracy/loss curve and final parameters,
// EXPECT_EQ not NEAR. Also covered: a dense hidden layer (mlp), dense+conv
// architectures, the whole-model fallback for unsupported architectures
// (mini_resnet's Residual blocks), and a loose-tolerance sanity run of the
// opt-in mixed-precision mode.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/cohort.h"
#include "src/nn/models.h"
#include "src/obs/registry.h"
#include "src/sim/fault_plan.h"

namespace hfl::fl {
namespace {

struct Fixture {
  data::TrainTest dataset;
  Topology topo{Topology::uniform(3, 3)};  // 3 edges × 3 workers
  data::Partition partition;
  nn::ModelFactory factory;
  RunConfig cfg3;  // three-tier
  RunConfig cfg2;  // two-tier (π = 1, matched period)

  explicit Fixture(const char* model = "logistic") {
    Rng rng(3);
    data::SyntheticSpec spec;
    // H, W divisible by 4 so the pooling conv architectures apply too.
    spec.sample_shape = {1, 8, 8};
    spec.num_classes = 3;
    spec.train_size = 90;
    spec.test_size = 30;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    if (std::string(model) == "cnn") {
      factory = nn::cnn({1, 8, 8}, 3);
    } else if (std::string(model) == "mlp") {
      factory = nn::mlp({1, 8, 8}, 16, 3);
    } else if (std::string(model) == "mini_resnet") {
      factory = nn::mini_resnet({1, 8, 8}, 3);
    } else {
      factory = nn::logistic_regression({1, 8, 8}, 3);
    }

    cfg3.total_iterations = 8;
    cfg3.tau = 2;
    cfg3.pi = 2;
    cfg3.batch_size = 4;
    cfg3.seed = 5;
    cfg2 = cfg3;
    cfg2.tau = 4;
    cfg2.pi = 1;
  }

  RunConfig config_for(const Algorithm& alg) const {
    return alg.three_tier() ? cfg3 : cfg2;
  }
};

RunResult run_once(const Fixture& f, Algorithm& alg, bool batched,
                   std::size_t threads, const ParticipationSchedule* schedule,
                   bool mixed = false) {
  RunConfig cfg = f.config_for(alg);
  cfg.batched = batched;
  cfg.mixed_precision = mixed;
  cfg.num_threads = threads;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  return engine.run(alg, schedule);
}

void expect_identical(const RunResult& ref, const RunResult& got) {
  ASSERT_EQ(ref.curve.size(), got.curve.size());
  for (std::size_t i = 0; i < ref.curve.size(); ++i) {
    EXPECT_EQ(ref.curve[i].iteration, got.curve[i].iteration);
    // EXPECT_EQ, not NEAR: the contract is bit-identity, not tolerance.
    EXPECT_EQ(ref.curve[i].test_loss, got.curve[i].test_loss);
    EXPECT_EQ(ref.curve[i].test_accuracy, got.curve[i].test_accuracy);
  }
  EXPECT_EQ(ref.final_params, got.final_params);
  EXPECT_EQ(ref.final_loss, got.final_loss);
  EXPECT_EQ(ref.final_accuracy, got.final_accuracy);
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  return names;
}

class BatchedParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchedParityTest, FusedRunBitIdenticalToPerWorker) {
  Fixture f;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto ref_alg = algs::make_algorithm(GetParam());
    auto fused_alg = algs::make_algorithm(GetParam());
    const RunResult ref =
        run_once(f, *ref_alg, /*batched=*/false, threads, nullptr);
    const RunResult fused =
        run_once(f, *fused_alg, /*batched=*/true, threads, nullptr);
    expect_identical(ref, fused);
  }
}

TEST_P(BatchedParityTest, FusedRunBitIdenticalUnderFaultSchedule) {
  Fixture f;
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.3;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto ref_alg = algs::make_algorithm(GetParam());
    auto fused_alg = algs::make_algorithm(GetParam());
    const sim::FaultPlan plan(f.topo, f.config_for(*ref_alg), fc);
    const RunResult ref =
        run_once(f, *ref_alg, /*batched=*/false, threads, &plan.schedule());
    const RunResult fused =
        run_once(f, *fused_alg, /*batched=*/true, threads, &plan.schedule());
    expect_identical(ref, fused);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BatchedParityTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Architectures beyond one dense layer: a dense hidden layer + activation
// (mlp) and conv + pool + dense through the batched conv spans (cnn).
TEST(BatchedParityModelTest, MlpAndCnnBitIdentical) {
  for (const char* model : {"mlp", "cnn"}) {
    SCOPED_TRACE(model);
    Fixture f(model);
    ASSERT_NE(nn::CohortModel::create(f.factory), nullptr);
    for (const char* name : {"HierAdMo", "FedAvg"}) {
      auto ref_alg = algs::make_algorithm(name);
      auto fused_alg = algs::make_algorithm(name);
      const RunResult ref =
          run_once(f, *ref_alg, /*batched=*/false, 4, nullptr);
      const RunResult fused =
          run_once(f, *fused_alg, /*batched=*/true, 4, nullptr);
      expect_identical(ref, fused);
    }
  }
}

// mini_resnet's Residual blocks are outside the cohort plan: create() must
// decline, the engine must fall back per worker (observable via the obs
// fused/fallback counters), and the run must match batched=false exactly.
TEST(BatchedParityFallbackTest, ResidualArchitectureFallsBack) {
  Fixture f("mini_resnet");
  EXPECT_EQ(nn::CohortModel::create(f.factory), nullptr);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  auto ref_alg = algs::make_algorithm("HierAdMo");
  auto fused_alg = algs::make_algorithm("HierAdMo");
  const RunResult ref = run_once(f, *ref_alg, /*batched=*/false, 1, nullptr);
  const RunResult fused = run_once(f, *fused_alg, /*batched=*/true, 1, nullptr);
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("engine.cohort.fused_grads").value(), 0u);
  EXPECT_GT(reg.counter("engine.cohort.fallback_grads").value(), 0u);
  obs::set_enabled(false);
  expect_identical(ref, fused);
}

// Mime's paired SVRG evaluation opts out of prefetch; a batched=true run must
// silently use the per-worker path and still match bitwise.
TEST(BatchedParityFallbackTest, MimeSvrgFallsBack) {
  Fixture f;
  auto ref_alg = algs::make_algorithm("Mime");
  auto fused_alg = algs::make_algorithm("Mime");
  ASSERT_FALSE(fused_alg->local_gradient_prefetchable());
  const RunResult ref = run_once(f, *ref_alg, /*batched=*/false, 4, nullptr);
  const RunResult fused = run_once(f, *fused_alg, /*batched=*/true, 4, nullptr);
  expect_identical(ref, fused);
}

// Mixed precision is NOT bit-identical — sanity-check that an end-to-end run
// stays close to the FP64 trajectory on a short convex problem and returns
// finite metrics.
TEST(BatchedMixedPrecisionTest, CloseToFp64Trajectory) {
  Fixture f;
  auto ref_alg = algs::make_algorithm("HierAdMo");
  auto mix_alg = algs::make_algorithm("HierAdMo");
  const RunResult ref = run_once(f, *ref_alg, /*batched=*/true, 4, nullptr);
  const RunResult mix = run_once(f, *mix_alg, /*batched=*/true, 4, nullptr,
                                 /*mixed=*/true);
  ASSERT_EQ(ref.final_params.size(), mix.final_params.size());
  Scalar max_diff = 0;
  for (std::size_t i = 0; i < ref.final_params.size(); ++i) {
    ASSERT_TRUE(std::isfinite(mix.final_params[i]));
    max_diff = std::max(max_diff,
                        std::abs(ref.final_params[i] - mix.final_params[i]));
  }
  // 8 iterations of ~1e-6-relative kernel error on O(1) parameters: loose
  // bound, orders of magnitude above the observed drift but far below any
  // algorithmic difference.
  EXPECT_LE(max_diff, 1e-3);
  EXPECT_TRUE(std::isfinite(mix.final_loss));
}

// Config validation: mixed precision without the batched path is a user
// error, not a silent no-op.
TEST(BatchedConfigTest, MixedWithoutBatchedRejected) {
  RunConfig cfg;
  cfg.batched = false;
  cfg.mixed_precision = true;
  EXPECT_THROW(cfg.validate(), Error);
}

}  // namespace
}  // namespace hfl::fl

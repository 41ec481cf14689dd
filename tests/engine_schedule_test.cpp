// Parameterized scheduling tests for the simulation engine: for every (τ, π)
// combination the engine must fire edge syncs at t = kτ, cloud syncs at
// t = pτπ, record the right curve points, and stay deterministic.
#include <gtest/gtest.h>

#include "src/common/errors.h"

#include <mutex>
#include <set>
#include <tuple>

#include "src/algs/registry.h"

#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"

namespace hfl::fl {
namespace {

// Records every hook invocation.
class ScheduleSpy final : public Algorithm {
 public:
  std::vector<std::size_t> edge_sync_iters;   // t at each edge_sync call
  std::vector<std::size_t> edge_sync_ks;      // k passed
  std::vector<std::size_t> edge_sync_ids;     // edge synchronized
  std::vector<std::size_t> cloud_sync_iters;  // t at each cloud_sync call
  std::vector<std::size_t> cloud_sync_ps;     // p passed
  std::size_t local_steps = 0;
  std::mutex mutex;

  std::string name() const override { return "spy"; }
  bool three_tier() const override { return true; }
  void local_step(Context& ctx, WorkerState& w) override {
    (void)ctx;
    (void)w;
    std::lock_guard<std::mutex> lock(mutex);
    ++local_steps;
  }
  // Edges of one barrier dispatch concurrently (edge_sync_reentrant()
  // defaults to true), so every recorder takes the lock.
  void edge_sync(Context& ctx, EdgeState& e, std::size_t k) override {
    std::lock_guard<std::mutex> lock(mutex);
    edge_sync_iters.push_back(ctx.t);
    edge_sync_ks.push_back(k);
    edge_sync_ids.push_back(e.id);
  }
  void cloud_sync(Context& ctx, std::size_t p) override {
    std::lock_guard<std::mutex> lock(mutex);
    cloud_sync_iters.push_back(ctx.t);
    cloud_sync_ps.push_back(p);
  }
};

struct ScheduleFixture {
  data::TrainTest dataset;
  Topology topo{Topology::uniform(2, 2)};
  data::Partition partition;
  nn::ModelFactory factory;

  ScheduleFixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 2;
    spec.train_size = 40;
    spec.test_size = 20;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, 4, rng);
    factory = nn::logistic_regression({1, 2, 2}, 2);
  }
};

using TauPi = std::tuple<std::size_t, std::size_t>;

class ScheduleTest : public ::testing::TestWithParam<TauPi> {};

TEST_P(ScheduleTest, HooksFireAtExactlyTheRightIterations) {
  const auto [tau, pi] = GetParam();
  ScheduleFixture f;
  RunConfig cfg;
  cfg.tau = tau;
  cfg.pi = pi;
  cfg.total_iterations = tau * pi * 3;  // exactly 3 cloud intervals
  cfg.batch_size = 4;
  cfg.seed = 5;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);

  ScheduleSpy spy;
  const RunResult r = engine.run(spy);

  // Local steps: T iterations × 4 workers.
  EXPECT_EQ(spy.local_steps, cfg.total_iterations * 4);

  // Edge syncs: K = T/τ rounds × 2 edges, at t = kτ with matching k. The
  // barrier completes before the next interval starts, so interval k owns
  // calls [2(k−1), 2k); within it the edges may run in any order.
  const std::size_t K = cfg.total_iterations / tau;
  ASSERT_EQ(spy.edge_sync_iters.size(), K * 2);
  for (std::size_t k = 1; k <= K; ++k) {
    std::set<std::size_t> edges;
    for (std::size_t i = 2 * (k - 1); i < 2 * k; ++i) {
      EXPECT_EQ(spy.edge_sync_iters[i], k * tau);
      EXPECT_EQ(spy.edge_sync_ks[i], k);
      edges.insert(spy.edge_sync_ids[i]);
    }
    EXPECT_EQ(edges, (std::set<std::size_t>{0, 1}));
  }

  // Cloud syncs: P = 3, at t = pτπ.
  ASSERT_EQ(spy.cloud_sync_iters.size(), 3u);
  for (std::size_t p = 1; p <= 3; ++p) {
    EXPECT_EQ(spy.cloud_sync_iters[p - 1], p * tau * pi);
    EXPECT_EQ(spy.cloud_sync_ps[p - 1], p);
  }

  // Curve: t = 0 plus one point per cloud sync.
  ASSERT_EQ(r.curve.size(), 4u);
  EXPECT_EQ(r.curve[0].iteration, 0u);
  EXPECT_EQ(r.curve[3].iteration, cfg.total_iterations);
}

INSTANTIATE_TEST_SUITE_P(
    TauPiGrid, ScheduleTest,
    ::testing::Values(TauPi{1, 1}, TauPi{1, 4}, TauPi{3, 1}, TauPi{4, 2},
                      TauPi{5, 3}, TauPi{10, 2}),
    [](const ::testing::TestParamInfo<TauPi>& info) {
      return "tau" + std::to_string(std::get<0>(info.param)) + "_pi" +
             std::to_string(std::get<1>(info.param));
    });

// Two-tier scheduling: edge hooks never fire.
class TwoTierSpy final : public Algorithm {
 public:
  std::size_t edge_calls = 0;
  std::vector<std::size_t> cloud_iters;
  std::string name() const override { return "spy2"; }
  bool three_tier() const override { return false; }
  void local_step(Context&, WorkerState&) override {}
  void edge_sync(Context&, EdgeState&, std::size_t) override { ++edge_calls; }
  void cloud_sync(Context& ctx, std::size_t) override {
    cloud_iters.push_back(ctx.t);
  }
};

TEST(TwoTierScheduleTest, NoEdgeHooksAndTauPeriod) {
  ScheduleFixture f;
  RunConfig cfg;
  cfg.tau = 7;
  cfg.pi = 1;
  cfg.total_iterations = 21;
  cfg.batch_size = 4;
  cfg.seed = 6;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  TwoTierSpy spy;
  engine.run(spy);
  EXPECT_EQ(spy.edge_calls, 0u);
  EXPECT_EQ(spy.cloud_iters, (std::vector<std::size_t>{7, 14, 21}));
}

// Determinism across the (τ, π) grid with a real algorithm.
class DeterminismSweepTest : public ::testing::TestWithParam<TauPi> {};

TEST_P(DeterminismSweepTest, TwoRunsIdentical) {
  const auto [tau, pi] = GetParam();
  ScheduleFixture f;
  RunConfig cfg;
  cfg.tau = tau;
  cfg.pi = pi;
  cfg.total_iterations = tau * pi * 2;
  cfg.batch_size = 4;
  cfg.seed = 8;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  auto a1 = algs::make_algorithm("HierAdMo");
  auto a2 = algs::make_algorithm("HierAdMo");
  const RunResult r1 = engine.run(*a1);
  const RunResult r2 = engine.run(*a2);
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.curve[i].test_loss, r2.curve[i].test_loss);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TauPiGrid, DeterminismSweepTest,
    ::testing::Values(TauPi{2, 2}, TauPi{5, 2}, TauPi{4, 4}),
    [](const ::testing::TestParamInfo<TauPi>& info) {
      return "tau" + std::to_string(std::get<0>(info.param)) + "_pi" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hfl::fl

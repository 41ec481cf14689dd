// Verifies the engine's data-weight bookkeeping: D_{i,ℓ}/D_ℓ and D_{i,ℓ}/D
// must reflect the partition sizes, edge weights must sum to one, and the
// initial state must satisfy Algorithm 1's lines 1–2 (common x0, y0 = x0,
// v0 = 0, edge/cloud state seeded with x0).
#include <gtest/gtest.h>

#include "src/common/errors.h"

#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"

namespace hfl::fl {
namespace {

// Captures the state the engine hands to init().
class InitSpy final : public Algorithm {
 public:
  WorkerSet* workers = nullptr;
  std::vector<EdgeState>* edges = nullptr;
  CloudState* cloud = nullptr;
  bool init_called = false;

  std::string name() const override { return "init-spy"; }
  bool three_tier() const override { return true; }
  void init(Context& ctx) override {
    workers = ctx.workers;
    edges = ctx.edges;
    cloud = ctx.cloud;
    init_called = true;
    // Inspect everything *now* (the vectors live only during run()).
    verify();
  }
  void local_step(Context&, WorkerState&) override {}
  void cloud_sync(Context&, std::size_t) override {}

  std::function<void()> on_init;
  void verify() {
    if (on_init) on_init();
  }
};

TEST(EngineWeightsTest, WeightsMatchPartitionSizes) {
  Rng rng(1);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = 100;
  spec.test_size = 20;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const Topology topo({2, 1});  // edge 0: workers {0,1}; edge 1: worker {2}

  // Hand-built partition with known sizes 20 / 30 / 50.
  data::Partition partition(3);
  for (std::size_t i = 0; i < 20; ++i) partition[0].push_back(i);
  for (std::size_t i = 20; i < 50; ++i) partition[1].push_back(i);
  for (std::size_t i = 50; i < 100; ++i) partition[2].push_back(i);

  RunConfig cfg;
  cfg.total_iterations = 2;
  cfg.tau = 1;
  cfg.pi = 2;
  cfg.batch_size = 4;
  cfg.seed = 9;
  Engine engine(nn::logistic_regression({1, 2, 2}, 2), dataset, partition,
                topo, cfg);

  InitSpy spy;
  spy.on_init = [&spy] {
    const auto& w = *spy.workers;
    ASSERT_EQ(w.size(), 3u);
    // Global weights: 0.2 / 0.3 / 0.5.
    EXPECT_NEAR(w[0].weight_global, 0.2, 1e-12);
    EXPECT_NEAR(w[1].weight_global, 0.3, 1e-12);
    EXPECT_NEAR(w[2].weight_global, 0.5, 1e-12);
    // In-edge weights: edge 0 has 20+30=50 samples -> 0.4 / 0.6; edge 1: 1.
    EXPECT_NEAR(w[0].weight_in_edge, 0.4, 1e-12);
    EXPECT_NEAR(w[1].weight_in_edge, 0.6, 1e-12);
    EXPECT_NEAR(w[2].weight_in_edge, 1.0, 1e-12);
    EXPECT_EQ(w[0].num_samples, 20u);
    EXPECT_EQ(w[2].num_samples, 50u);
    // Edge weights: 0.5 / 0.5, summing to one.
    const auto& e = *spy.edges;
    EXPECT_NEAR(e[0].weight_global, 0.5, 1e-12);
    EXPECT_NEAR(e[1].weight_global, 0.5, 1e-12);
  };
  engine.run(spy);
  EXPECT_TRUE(spy.init_called);
}

TEST(EngineWeightsTest, InitialStateSatisfiesAlgorithmOneLines1And2) {
  Rng rng(2);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = 40;
  spec.test_size = 10;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const Topology topo = Topology::uniform(2, 2);
  Rng prng(3);
  const data::Partition partition = data::partition_iid(dataset.train, 4,
                                                        prng);
  RunConfig cfg;
  cfg.total_iterations = 2;
  cfg.tau = 1;
  cfg.pi = 2;
  cfg.batch_size = 4;
  cfg.seed = 11;
  Engine engine(nn::logistic_regression({1, 2, 2}, 2), dataset, partition,
                topo, cfg);

  InitSpy spy;
  spy.on_init = [&spy] {
    const auto& workers = *spy.workers;
    const Vec& x0 = workers.slot(0).x;
    for (const auto& w : workers) {
      EXPECT_EQ(w.x, x0);   // common initial model (line 1)
      EXPECT_EQ(w.y, x0);   // y0 = x0 (line 1)
      for (const Scalar v : w.sum_grad) EXPECT_DOUBLE_EQ(v, 0.0);
      for (const Scalar v : w.sum_y) EXPECT_DOUBLE_EQ(v, 0.0);
      EXPECT_TRUE(w.sum_v.empty());  // sized only by kVelocity's init_worker
    }
    for (const auto& e : *spy.edges) {
      EXPECT_EQ(e.x_plus, x0);  // x0_{ℓ+} = x0 (line 2)
      EXPECT_EQ(e.y_plus, x0);  // y0_{ℓ+} = x0_{ℓ+} (line 2)
      EXPECT_EQ(e.y_minus, x0);
    }
    EXPECT_EQ(spy.cloud->x, x0);
    EXPECT_EQ(spy.cloud->y, x0);
  };
  engine.run(spy);
  EXPECT_TRUE(spy.init_called);
}

TEST(EngineWeightsTest, SameSeedSameInitialPointAcrossEngines) {
  Rng rng(4);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = 40;
  spec.test_size = 10;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const Topology topo = Topology::uniform(1, 2);
  Rng prng(5);
  const data::Partition partition = data::partition_iid(dataset.train, 2,
                                                        prng);
  RunConfig cfg;
  cfg.total_iterations = 1;
  cfg.tau = 1;
  cfg.pi = 1;
  cfg.batch_size = 4;
  cfg.seed = 42;

  Vec x0_a, x0_b;
  {
    Engine engine(nn::mlp({1, 2, 2}, 4, 2), dataset, partition, topo, cfg);
    InitSpy spy;
    spy.on_init = [&spy, &x0_a] { x0_a = spy.workers->slot(0).x; };
    engine.run(spy);
  }
  {
    Engine engine(nn::mlp({1, 2, 2}, 4, 2), dataset, partition, topo, cfg);
    InitSpy spy;
    spy.on_init = [&spy, &x0_b] { x0_b = spy.workers->slot(0).x; };
    engine.run(spy);
  }
  EXPECT_EQ(x0_a, x0_b);
}

}  // namespace
}  // namespace hfl::fl

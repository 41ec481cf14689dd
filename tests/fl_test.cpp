// Tests for the FL framework: topology mapping, state aggregation helpers,
// and the simulation engine's scheduling/determinism contracts.
#include <gtest/gtest.h>

#include "src/common/errors.h"

#include <numeric>

#include "src/algs/registry.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/cohort.h"
#include "src/nn/models.h"

namespace hfl::fl {
namespace {

TEST(TopologyTest, UniformLayout) {
  const Topology t = Topology::uniform(3, 4);
  EXPECT_EQ(t.num_edges(), 3u);
  EXPECT_EQ(t.num_workers(), 12u);
  EXPECT_EQ(t.workers_in_edge(1), 4u);
  EXPECT_EQ(t.edge_of_worker(0), 0u);
  EXPECT_EQ(t.edge_of_worker(4), 1u);
  EXPECT_EQ(t.edge_of_worker(11), 2u);
  EXPECT_EQ(t.workers_of_edge(1), (std::vector<WorkerId>{4, 5, 6, 7}));
}

TEST(TopologyTest, HeterogeneousEdges) {
  const Topology t({1, 3, 2});
  EXPECT_EQ(t.num_workers(), 6u);
  EXPECT_EQ(t.workers_of_edge(0), (std::vector<WorkerId>{0}));
  EXPECT_EQ(t.workers_of_edge(2), (std::vector<WorkerId>{4, 5}));
}

TEST(TopologyTest, RejectsInvalid) {
  EXPECT_THROW(Topology({}), Error);
  EXPECT_THROW(Topology({2, 0}), Error);
  const Topology t = Topology::uniform(2, 2);
  EXPECT_THROW(t.edge_of_worker(4), Error);
  EXPECT_THROW(t.workers_of_edge(2), Error);
}

TEST(StateTest, EdgeAggregationWeights) {
  const Topology topo({2, 1});
  std::vector<WorkerState> workers(3);
  for (std::size_t i = 0; i < 3; ++i) {
    workers[i].id = i;
    workers[i].edge = topo.edge_of_worker(i);
  }
  workers[0].weight_in_edge = 0.25;
  workers[1].weight_in_edge = 0.75;
  workers[2].weight_in_edge = 1.0;
  workers[0].x = {4, 0};
  workers[1].x = {0, 4};
  workers[2].x = {1, 1};
  Vec out;
  const std::vector<std::uint32_t> slots = {0, 1, 2};
  const WorkerSet view(&workers, &slots);
  aggregate_edge(topo, 0, view, worker_x, out);
  EXPECT_EQ(out, (Vec{1.0, 3.0}));
  aggregate_edge(topo, 1, view, worker_x, out);
  EXPECT_EQ(out, (Vec{1.0, 1.0}));
}

TEST(StateTest, GlobalAggregationUsesGlobalWeights) {
  std::vector<WorkerState> workers(2);
  workers[0].weight_global = 0.5;
  workers[1].weight_global = 0.5;
  workers[0].y = {2, 0};
  workers[1].y = {0, 2};
  Vec out;
  const std::vector<std::uint32_t> slots = {0, 1};
  const WorkerSet view(&workers, &slots);
  aggregate_global(view, worker_y, out);
  EXPECT_EQ(out, (Vec{1.0, 1.0}));
}

// ------------------------- engine fixtures -------------------------

struct EngineFixture {
  data::TrainTest dataset;
  Topology topo;
  data::Partition partition;
  nn::ModelFactory factory;

  explicit EngineFixture(std::uint64_t seed = 1)
      : topo(Topology::uniform(2, 2)) {
    Rng rng(seed);
    data::SyntheticSpec spec;
    spec.sample_shape = {4};       // tiny flat features
    spec.num_classes = 3;
    spec.train_size = 120;
    spec.test_size = 60;
    spec.separation = 1.0;
    spec.noise = 0.5;
    // Flat sample shapes need a 3-axis shape for make_synthetic's templates.
    spec.sample_shape = {1, 2, 2};
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 2, 2}, 3);
  }

  RunConfig config() const {
    RunConfig cfg;
    cfg.total_iterations = 40;
    cfg.tau = 5;
    cfg.pi = 2;
    cfg.eta = 0.05;
    cfg.gamma = 0.5;
    cfg.gamma_edge = 0.5;
    cfg.batch_size = 8;
    cfg.seed = 7;
    cfg.num_threads = 2;
    return cfg;
  }
};

TEST(EngineTest, CurveHasInitialAndCloudSyncPoints) {
  EngineFixture f;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, f.config());
  auto alg = algs::make_algorithm("HierAdMo");
  const RunResult r = engine.run(*alg);
  // t=0 plus P = T/(tau*pi) = 4 cloud syncs.
  ASSERT_EQ(r.curve.size(), 5u);
  EXPECT_EQ(r.curve[0].iteration, 0u);
  EXPECT_EQ(r.curve[1].iteration, 10u);
  EXPECT_EQ(r.curve[4].iteration, 40u);
  EXPECT_EQ(r.final_accuracy, r.curve.back().test_accuracy);
}

TEST(EngineTest, EvalEveryAddsIntermediatePoints) {
  EngineFixture f;
  RunConfig cfg = f.config();
  cfg.eval_every = 5;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  auto alg = algs::make_algorithm("HierAdMo");
  const RunResult r = engine.run(*alg);
  // t=0, then every 5 iterations: 5,15,25,35 intermediates + 10,20,30,40.
  ASSERT_EQ(r.curve.size(), 9u);
  EXPECT_EQ(r.curve[1].iteration, 5u);
  EXPECT_EQ(r.curve[2].iteration, 10u);
}

TEST(EngineTest, DeterministicAcrossRunsAndThreadCounts) {
  EngineFixture f;
  RunConfig cfg1 = f.config();
  cfg1.num_threads = 1;
  RunConfig cfg4 = f.config();
  cfg4.num_threads = 4;
  Engine e1(f.factory, f.dataset, f.partition, f.topo, cfg1);
  Engine e4(f.factory, f.dataset, f.partition, f.topo, cfg4);
  auto a1 = algs::make_algorithm("HierAdMo");
  auto a2 = algs::make_algorithm("HierAdMo");
  const RunResult r1 = e1.run(*a1);
  const RunResult r4 = e4.run(*a2);
  ASSERT_EQ(r1.curve.size(), r4.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.curve[i].test_accuracy, r4.curve[i].test_accuracy);
    EXPECT_DOUBLE_EQ(r1.curve[i].test_loss, r4.curve[i].test_loss);
  }
}

TEST(EngineTest, RepeatedRunsFromSameEngineAreIdentical) {
  EngineFixture f;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, f.config());
  auto alg = algs::make_algorithm("FedAvg");
  RunConfig cfg2 = f.config();
  cfg2.tau = 10;
  cfg2.pi = 1;
  Engine engine2(f.factory, f.dataset, f.partition, f.topo, cfg2);
  const RunResult r1 = engine2.run(*alg);
  const RunResult r2 = engine2.run(*alg);
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.curve[i].test_loss, r2.curve[i].test_loss);
  }
}

TEST(EngineTest, TrainingImprovesOverInitial) {
  EngineFixture f;
  RunConfig cfg = f.config();
  cfg.total_iterations = 100;
  cfg.tau = 5;
  cfg.pi = 2;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  auto alg = algs::make_algorithm("HierAdMo");
  const RunResult r = engine.run(*alg);
  EXPECT_GT(r.final_accuracy, r.curve.front().test_accuracy + 0.2);
}

TEST(EngineTest, TwoTierRequiresPiOne) {
  EngineFixture f;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, f.config());
  auto alg = algs::make_algorithm("FedAvg");
  EXPECT_THROW(engine.run(*alg), Error);  // pi == 2 with a two-tier algorithm
}

TEST(EngineTest, RejectsBadConfigs) {
  EngineFixture f;
  RunConfig cfg = f.config();
  cfg.total_iterations = 37;  // not a multiple of tau*pi
  EXPECT_THROW(Engine(f.factory, f.dataset, f.partition, f.topo, cfg), Error);

  data::Partition wrong = f.partition;
  wrong.pop_back();
  EXPECT_THROW(Engine(f.factory, f.dataset, wrong, f.topo, f.config()), Error);
}

TEST(EngineTest, IterationsToAccuracyMonotoneLookup) {
  RunResult r;
  r.curve = {{0, 1.0, 0.1}, {10, 0.5, 0.6}, {20, 0.3, 0.9}};
  EXPECT_EQ(r.iterations_to_accuracy(0.55), 10u);
  EXPECT_EQ(r.iterations_to_accuracy(0.85), 20u);
  // Reached at t = 0 and never reached are distinct answers now.
  EXPECT_EQ(r.iterations_to_accuracy(0.05), 0u);
  // npos is an alias of the shared hfl::kNeverIndex sentinel.
  static_assert(RunResult::npos == kNeverIndex);
  EXPECT_EQ(r.iterations_to_accuracy(0.95), kNeverIndex);
  EXPECT_DOUBLE_EQ(r.best_accuracy(), 0.9);
}

// The engine's pool-parallel, 128-sample-batch evaluation against one
// prediction over the whole test set, scored in one piece.
TEST(EngineTest, EvaluateMatchesWholeSetEvaluation) {
  EngineFixture f;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, f.config());
  auto model = f.factory();
  Rng rng(3);
  model->init_params(rng);
  const Vec params = model->get_params();

  const nn::EvalResult via_engine = engine.evaluate(params);

  // Reference: single batch over the whole test set.
  std::vector<std::size_t> idx(f.dataset.test.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Tensor x;
  std::vector<std::size_t> y;
  f.dataset.test.gather(idx, x, y);
  const auto plan = nn::CohortModel::create(*model);
  Tensor pred;
  plan->predict(params.data(), x.raw(), y.size(), pred);
  const nn::EvalResult direct =
      nn::evaluate_predictions(plan->loss(), pred, y);

  EXPECT_NEAR(via_engine.accuracy, direct.accuracy, 1e-12);
  EXPECT_NEAR(via_engine.loss, direct.loss, 1e-9);
}

}  // namespace
}  // namespace hfl::fl

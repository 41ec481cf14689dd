// Tests for the core HierAdMo algorithm (Algorithm 1): the γℓ clamp of
// eq. (7), the cosine aggregation of eq. (6), the edge/cloud update algebra,
// redistribution invariants, and reduction properties (γ = γℓ = 0 recovers
// HierFAVG; one worker with γℓ = 0 recovers FedNAG).
#include <gtest/gtest.h>

#include <mutex>

#include "src/common/errors.h"

#include "src/algs/registry.h"
#include "src/core/hieradmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"

namespace hfl::core {
namespace {

TEST(ClampGammaTest, MatchesEquation7) {
  HierAdMo alg;
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(-0.001), 0.0);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(0.0), 0.0);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(0.5), 0.5);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(0.98999), 0.98999);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(0.99), 0.99);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(1.0), 0.99);
}

TEST(ClampGammaTest, CustomClampMax) {
  HierAdMoOptions opt;
  opt.clamp_max = 0.5;
  HierAdMo alg(opt);
  EXPECT_DOUBLE_EQ(alg.clamp_gamma(0.7), 0.5);
  HierAdMoOptions bad;
  bad.clamp_max = 1.5;
  EXPECT_THROW(HierAdMo{bad}, Error);
}

// Builds a minimal hand-crafted context around given worker accumulators.
struct FakeSetup {
  fl::Topology topo{std::vector<std::size_t>{2}};  // one edge, two workers
  fl::RunConfig cfg;
  std::vector<fl::WorkerState> workers;
  std::vector<std::uint32_t> slots{0, 1};  // slot i holds worker i
  fl::WorkerSet worker_set{&workers, &slots};
  std::vector<fl::EdgeState> edges;
  fl::CloudState cloud;

  FakeSetup() {
    workers.resize(2);
    for (std::size_t i = 0; i < 2; ++i) {
      workers[i].id = i;
      workers[i].edge = 0;
      workers[i].weight_in_edge = 0.5;
      workers[i].weight_global = 0.5;
    }
    edges.resize(1);
    edges[0].id = 0;
    edges[0].weight_global = 1.0;
  }

  fl::Context context() {
    return fl::Context{&cfg, &topo, &worker_set, &edges, &cloud, 0};
  }
};

TEST(CosThetaTest, WeightedCombinationOfPerWorkerCosines) {
  FakeSetup s;
  // Worker 0: −Σg = (1,0), Σy = (1,0) -> cos = 1.
  s.workers[0].sum_grad = {-1, 0};
  s.workers[0].sum_y = {1, 0};
  // Worker 1: −Σg = (1,0), Σy = (−1,0) -> cos = −1.
  s.workers[1].sum_grad = {-1, 0};
  s.workers[1].sum_y = {-1, 0};

  HierAdMo alg;  // default: kMomentumValue signal
  fl::Context ctx = s.context();
  EXPECT_NEAR(alg.compute_cos_theta(ctx, s.edges[0]), 0.0, 1e-12);

  // Unequal weights shift the combination.
  s.workers[0].weight_in_edge = 0.75;
  s.workers[1].weight_in_edge = 0.25;
  EXPECT_NEAR(alg.compute_cos_theta(ctx, s.edges[0]), 0.5, 1e-12);
}

TEST(CosThetaTest, VelocitySignalUsesSumV) {
  FakeSetup s;
  s.workers[0].sum_grad = {-2, 0};
  s.workers[0].sum_y = {0, 5};   // orthogonal — would give 0
  s.workers[0].sum_v = {4, 0};   // aligned — gives 1
  s.workers[1].sum_grad = {-2, 0};
  s.workers[1].sum_y = {0, 5};
  s.workers[1].sum_v = {4, 0};

  HierAdMoOptions opt;
  opt.signal = HierAdMoOptions::Signal::kVelocity;
  HierAdMo vel(opt);
  HierAdMo lit;  // literal Σy signal
  fl::Context ctx = s.context();
  EXPECT_NEAR(vel.compute_cos_theta(ctx, s.edges[0]), 1.0, 1e-12);
  EXPECT_NEAR(lit.compute_cos_theta(ctx, s.edges[0]), 0.0, 1e-12);
}

TEST(EdgeSyncTest, UpdateAlgebraMatchesAlgorithm1) {
  FakeSetup s;
  s.cfg.gamma_edge = 0.5;
  const std::size_t n = 2;
  s.workers[0].x = {2, 0};
  s.workers[1].x = {0, 2};
  s.workers[0].y = {1, 1};
  s.workers[1].y = {3, 3};
  for (auto& w : s.workers) {
    w.sum_grad.assign(n, 0.0);
    w.sum_y.assign(n, 0.0);
    w.sum_v.assign(n, 0.0);
    w.sum_grad = {-1, -1};  // aligned with Σy below -> cosθ = 1 -> γℓ = 0.99
    w.sum_y = {1, 1};
  }
  s.edges[0].x_plus = {0, 0};
  s.edges[0].y_plus = {0, 0};  // y_{ℓ+}^{(k−1)τ}

  HierAdMo alg;
  fl::Context ctx = s.context();
  alg.edge_sync(ctx, s.edges[0], 1);

  // γℓ = clamp(1) = 0.99.
  EXPECT_DOUBLE_EQ(s.edges[0].gamma_edge, 0.99);
  // y_{ℓ−} = avg y = (2, 2).
  EXPECT_EQ(s.edges[0].y_minus, (Vec{2, 2}));
  // y_{ℓ+} = avg x = (1, 1); x_{ℓ+} = y_{ℓ+} + 0.99 (y_{ℓ+} − prev) =
  // (1.99, 1.99).
  EXPECT_EQ(s.edges[0].y_plus, (Vec{1, 1}));
  EXPECT_NEAR(s.edges[0].x_plus[0], 1.99, 1e-12);
  // Redistribution: every worker got y_{ℓ−} and x_{ℓ+}, accumulators reset.
  for (const auto& w : s.workers) {
    EXPECT_EQ(w.y, s.edges[0].y_minus);
    EXPECT_EQ(w.x, s.edges[0].x_plus);
    EXPECT_EQ(w.sum_grad, (Vec{0, 0}));
    EXPECT_EQ(w.sum_y, (Vec{0, 0}));
  }
}

TEST(EdgeSyncTest, FixedGammaIgnoresCosine) {
  FakeSetup s;
  s.cfg.gamma_edge = 0.3;
  for (auto& w : s.workers) {
    w.x = {1, 1};
    w.y = {1, 1};
    w.sum_grad = {5, 5};  // opposed to Σy -> adaptive would pick 0
    w.sum_y = {1, 1};
    w.sum_v = {1, 1};
  }
  s.edges[0].x_plus = {1, 1};
  s.edges[0].y_plus = {1, 1};

  HierAdMoOptions opt;
  opt.adaptive = false;
  HierAdMo alg(opt);
  fl::Context ctx = s.context();
  alg.edge_sync(ctx, s.edges[0], 1);
  EXPECT_DOUBLE_EQ(s.edges[0].gamma_edge, 0.3);
}

TEST(CloudSyncTest, AggregatesAndRedistributesEverything) {
  FakeSetup s;
  // Two edges this time.
  s.topo = fl::Topology({1, 1});
  s.workers[0].edge = 0;
  s.workers[1].edge = 1;
  s.workers[0].weight_in_edge = 1.0;
  s.workers[1].weight_in_edge = 1.0;
  s.edges.resize(2);
  s.edges[0].id = 0;
  s.edges[1].id = 1;
  s.edges[0].weight_global = 0.25;
  s.edges[1].weight_global = 0.75;
  s.edges[0].y_minus = {4, 0};
  s.edges[1].y_minus = {0, 4};
  s.edges[0].x_plus = {8, 0};
  s.edges[1].x_plus = {0, 8};
  s.cloud.x.assign(2, 0.0);
  s.cloud.y.assign(2, 0.0);

  HierAdMo alg;
  fl::Context ctx = s.context();
  alg.cloud_sync(ctx, 1);

  EXPECT_EQ(s.cloud.y, (Vec{1, 3}));
  EXPECT_EQ(s.cloud.x, (Vec{2, 6}));
  for (const auto& e : s.edges) {
    EXPECT_EQ(e.y_minus, s.cloud.y);
    EXPECT_EQ(e.x_plus, s.cloud.x);
  }
  for (const auto& w : s.workers) {
    EXPECT_EQ(w.y, s.cloud.y);
    EXPECT_EQ(w.x, s.cloud.x);
  }
}

// ------------------------- reduction properties -------------------------

struct ReductionFixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(2, 2)};
  data::Partition partition;
  nn::ModelFactory factory;

  ReductionFixture() {
    Rng rng(42);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 3;
    spec.train_size = 120;
    spec.test_size = 60;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, 4, rng);
    factory = nn::logistic_regression({1, 2, 2}, 3);
  }
};

TEST(ReductionTest, ZeroMomentaRecoverHierFavg) {
  // With γ = 0 (worker NAG degenerates to SGD) and fixed γℓ = 0 (no edge
  // momentum), HierAdMo-R is algebraically identical to HierFAVG.
  ReductionFixture f;
  fl::RunConfig cfg;
  cfg.total_iterations = 40;
  cfg.tau = 5;
  cfg.pi = 2;
  cfg.eta = 0.05;
  cfg.gamma = 0.0;  // NAG with γ = 0 is exactly SGD
  cfg.gamma_edge = 0.0;
  cfg.batch_size = 8;
  cfg.seed = 5;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);

  HierAdMoOptions opt;
  opt.adaptive = false;
  HierAdMo reduced(opt);
  auto hierfavg = algs::make_algorithm("HierFAVG");

  const fl::RunResult r1 = engine.run(reduced);
  const fl::RunResult r2 = engine.run(*hierfavg);
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_NEAR(r1.curve[i].test_loss, r2.curve[i].test_loss, 1e-9);
    EXPECT_DOUBLE_EQ(r1.curve[i].test_accuracy, r2.curve[i].test_accuracy);
  }
}

TEST(ReductionTest, SingleWorkerZeroEdgeMomentumEqualsFedNag) {
  // One worker, one edge, γℓ = 0: all aggregations are identities, so
  // HierAdMo-R degenerates to pure worker NAG — exactly FedNAG with one
  // worker and a matched period.
  ReductionFixture f;
  const fl::Topology topo = fl::Topology::uniform(1, 1);
  Rng rng(8);
  data::Partition partition =
      data::partition_iid(f.dataset.train, 1, rng);

  fl::RunConfig cfg3;
  cfg3.total_iterations = 40;
  cfg3.tau = 5;
  cfg3.pi = 2;
  cfg3.eta = 0.05;
  cfg3.gamma = 0.5;
  cfg3.gamma_edge = 0.0;
  cfg3.batch_size = 8;
  cfg3.seed = 5;
  fl::RunConfig cfg2 = cfg3;
  cfg2.tau = 10;
  cfg2.pi = 1;

  fl::Engine e3(f.factory, f.dataset, partition, topo, cfg3);
  fl::Engine e2(f.factory, f.dataset, partition, topo, cfg2);

  HierAdMoOptions opt;
  opt.adaptive = false;
  HierAdMo reduced(opt);
  auto fednag = algs::make_algorithm("FedNAG");

  const fl::RunResult r1 = e3.run(reduced);
  const fl::RunResult r2 = e2.run(*fednag);
  // Cloud-sync points coincide every 10 iterations.
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_EQ(r1.curve[i].iteration, r2.curve[i].iteration);
    EXPECT_NEAR(r1.curve[i].test_loss, r2.curve[i].test_loss, 1e-9);
  }
}

TEST(AdaptiveGammaTest, StaysInClampRangeDuringTraining) {
  ReductionFixture f;
  fl::RunConfig cfg;
  cfg.total_iterations = 30;
  cfg.tau = 5;
  cfg.pi = 2;
  cfg.eta = 0.05;
  cfg.gamma = 0.5;
  cfg.gamma_edge = 0.5;
  cfg.batch_size = 8;
  cfg.seed = 6;

  // Recorder wraps HierAdMo and logs γℓ after every edge sync.
  class Recorder final : public fl::Algorithm {
   public:
    HierAdMo inner;
    std::vector<Scalar> gammas;
    std::mutex mutex;  // guards gammas: edges sync concurrently
    std::string name() const override { return inner.name(); }
    bool three_tier() const override { return true; }
    void init(fl::Context& ctx) override { inner.init(ctx); }
    void local_step(fl::Context& ctx, fl::WorkerState& w) override {
      inner.local_step(ctx, w);
    }
    void edge_sync(fl::Context& ctx, fl::EdgeState& e,
                   std::size_t k) override {
      inner.edge_sync(ctx, e, k);
      const std::lock_guard<std::mutex> lock(mutex);
      gammas.push_back(e.gamma_edge);
    }
    void cloud_sync(fl::Context& ctx, std::size_t p) override {
      inner.cloud_sync(ctx, p);
    }
  };

  Recorder rec;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  engine.run(rec);
  ASSERT_FALSE(rec.gammas.empty());
  for (const Scalar g : rec.gammas) {
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 0.99);
  }
}

TEST(NamesTest, AdaptiveFlagControlsName) {
  EXPECT_EQ(make_hieradmo()->name(), "HierAdMo");
  EXPECT_EQ(make_hieradmo_r()->name(), "HierAdMo-R");
}

}  // namespace
}  // namespace hfl::core

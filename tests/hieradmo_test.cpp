// Tests for the core HierAdMo algorithm (Algorithm 1): the γℓ clamp of
// eq. (7), the cosine aggregation of eq. (6), the edge/cloud update algebra,
// redistribution invariants, the tile-swept edge and cloud rounds against
// the same rounds composed from whole-vector passes (bitwise) and across
// thread counts, and reduction properties (γ = γℓ = 0 recovers HierFAVG;
// one worker with γℓ = 0 recovers FedNAG).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "src/common/errors.h"

#include "src/algs/registry.h"
#include "src/core/hieradmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/availability.h"
#include "src/fl/compression.h"
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

TEST(InitWorkerTest, SizesVelocitySumOnlyUnderVelocitySignal) {
  FakeSetup s;
  fl::Context ctx = s.context();
  for (const auto signal : {HierAdMoOptions::Signal::kMomentumValue,
                            HierAdMoOptions::Signal::kVelocity,
                            HierAdMoOptions::Signal::kCrossWorker}) {
    HierAdMoOptions opt;
    opt.signal = signal;
    HierAdMo alg(opt);
    fl::WorkerState w;
    w.x.assign(5, 0.5);
    alg.init_worker(ctx, w);
    const bool velocity = signal == HierAdMoOptions::Signal::kVelocity;
    EXPECT_EQ(w.sum_v.size(), velocity ? 5u : 0u);
    for (const Scalar v : w.sum_v) EXPECT_EQ(v, 0.0);
  }
}

// The γℓ pass restarts Σ∇F and the signal accumulator behind its read; the
// round must still leave every accumulator bitwise +0.0 (−0.0 inputs
// included) under every signal and with the fixed γℓ, and adapt γℓ from
// the accumulators as they were before the round.
TEST(EdgeSyncTest, EverySignalRestartsEveryAccumulator) {
  for (int mode = 0; mode < 4; ++mode) {
    SCOPED_TRACE("mode " + std::to_string(mode));
    FakeSetup s;
    for (std::size_t i = 0; i < 2; ++i) {
      fl::WorkerState& w = s.workers[i];
      w.x = {1.0 + static_cast<Scalar>(i), -1.0, 0.5};
      w.y = {0.5, 2.0, -1.5};
      w.sum_grad = {-1.0, -0.0, 0.25 * static_cast<Scalar>(i + 1)};
      w.sum_y = {1.0, 0.5, -0.0};
      w.sum_v = {-0.0, 2.0, 1.0};
    }
    s.edges[0].x_plus = {0, 0, 0};
    s.edges[0].y_plus = {0, 0, 0};
    HierAdMoOptions opt;
    opt.adaptive = mode < 3;
    if (opt.adaptive) opt.signal = static_cast<HierAdMoOptions::Signal>(mode);
    HierAdMo alg(opt);
    fl::Context ctx = s.context();
    const Scalar cos_theta = alg.compute_cos_theta(ctx, s.edges[0]);
    alg.edge_sync(ctx, s.edges[0], 1);
    if (opt.adaptive) {
      EXPECT_EQ(s.edges[0].last_cos_theta, cos_theta);
    }
    for (const fl::WorkerState& w : s.workers) {
      for (const Vec* acc : {&w.sum_grad, &w.sum_y, &w.sum_v}) {
        ASSERT_EQ(acc->size(), 3u);
        for (const Scalar v : *acc) {
          EXPECT_EQ(v, 0.0);
          EXPECT_FALSE(std::signbit(v));
        }
      }
    }
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

// ------------------ fused rounds vs the composed passes ------------------
//
// edge_sync and cloud_sync sweep tiles of every vector once. The reference
// is the same round composed from standalone whole-vector passes: eq. (6)
// from three-pass cosines, fl::aggregate_edge(s), vec::extrapolate_update,
// copy-assignment and reset_interval_accumulators. Both run on identically
// built states whose vectors span several tiles; every vector must agree
// bit for bit.

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0;
}

bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

Scalar three_pass_cosine(const Vec& x, const Vec& y) {
  const Scalar nx = std::sqrt(vec::dot(x, x));
  const Scalar ny = std::sqrt(vec::dot(y, y));
  if (nx < 1e-12 || ny < 1e-12) return 0.0;
  return std::clamp(vec::dot(x, y) / (nx * ny), Scalar{-1}, Scalar{1});
}

// Eq. (6) from whole-vector passes.
Scalar reference_cos_theta(const HierAdMoOptions& opt, const fl::Context& ctx,
                           const fl::EdgeState& e) {
  const auto& ids = fl::active_workers(ctx.part, *ctx.topo, e.id);
  const fl::WorkerSet& workers = *ctx.workers;
  Vec aggregated;
  if (opt.signal == HierAdMoOptions::Signal::kCrossWorker) {
    aggregated.assign(workers[ids.front()].sum_grad.size(), 0.0);
    for (const std::size_t id : ids) {
      vec::axpy(fl::active_weight_in_edge(ctx.part, workers[id]),
                workers[id].sum_grad, aggregated);
    }
  }
  Scalar cos_theta = 0;
  for (const std::size_t id : ids) {
    const fl::WorkerState& w = workers[id];
    Scalar c = 0;
    if (opt.signal == HierAdMoOptions::Signal::kCrossWorker) {
      c = three_pass_cosine(w.sum_grad, aggregated);
    } else {
      Vec descent = w.sum_grad;
      vec::scale(descent, -1.0);
      c = three_pass_cosine(descent,
                            opt.signal == HierAdMoOptions::Signal::kVelocity
                                ? w.sum_v
                                : w.sum_y);
    }
    cos_theta += fl::active_weight_in_edge(ctx.part, w) * c;
  }
  return cos_theta;
}

void reference_edge_sync(const HierAdMo& alg, fl::Context& ctx,
                         fl::EdgeState& e) {
  const HierAdMoOptions& opt = alg.options();
  fl::WorkerSet& workers = *ctx.workers;
  const auto& ids = fl::active_workers(ctx.part, *ctx.topo, e.id);
  if (opt.upload_compressor) {
    for (const std::size_t id : ids) {
      fl::WorkerState& w = workers[id];
      opt.upload_compressor->compress(w.x);
      opt.upload_compressor->compress(w.y);
      opt.upload_compressor->compress(w.sum_grad);
      opt.upload_compressor->compress(w.sum_y);
    }
  }
  if (opt.adaptive) {
    e.last_cos_theta = reference_cos_theta(opt, ctx, e);
    e.gamma_edge = alg.clamp_gamma(e.last_cos_theta);
  } else {
    e.gamma_edge = ctx.cfg->gamma_edge;
  }
  Vec y_plus;
  fl::aggregate_edge(*ctx.topo, e.id, workers, fl::worker_y, e.y_minus,
                     ctx.part);
  fl::aggregate_edge(*ctx.topo, e.id, workers, fl::worker_x, y_plus,
                     ctx.part);
  e.x_plus.resize(y_plus.size());
  vec::extrapolate_update(y_plus, e.y_plus, e.gamma_edge, e.x_plus);
  for (const std::size_t id : ids) {
    fl::WorkerState& w = workers[id];
    w.y = e.y_minus;
    w.x = e.x_plus;
    w.reset_interval_accumulators();
  }
}

void reference_cloud_sync(fl::Context& ctx) {
  fl::aggregate_edges(*ctx.edges, fl::edge_y_minus, ctx.cloud->y, ctx.part);
  fl::aggregate_edges(*ctx.edges, fl::edge_x_plus, ctx.cloud->x, ctx.part);
  for (fl::EdgeState& e : *ctx.edges) {
    if (!fl::is_edge_active(ctx.part, e.id)) continue;
    e.y_minus = ctx.cloud->y;
    e.x_plus = ctx.cloud->x;
  }
  for (fl::WorkerState& w : *ctx.workers) {
    if (!fl::is_active(ctx.part, w.id)) continue;
    w.y = ctx.cloud->y;
    w.x = ctx.cloud->x;
  }
}

// Seven edges of 1–6 workers (the last edge has 2) with random multi-tile
// state and uneven data masses. With participation, workers 4, 19 and 20
// drop and edge 6 is down, so the live edges keep 1, 2, 2, 4, 5 and 4
// workers: between the two rosters every active count in 1–6 occurs.
struct SweepFixture {
  static constexpr std::size_t kN = 2 * 4096 + 1024 + 13;
  fl::Topology topo{std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 2}};
  fl::RunConfig cfg;
  std::vector<fl::WorkerState> workers;
  std::vector<std::uint32_t> slots;
  fl::WorkerSet worker_set{&workers, &slots};
  std::vector<fl::EdgeState> edges;
  fl::CloudState cloud;
  std::unique_ptr<fl::Participation> part;

  explicit SweepFixture(bool with_participation) {
    cfg.gamma_edge = 0.3;
    const std::size_t num_workers = topo.num_workers();
    Rng rng(77);
    const auto random_vec = [&] {
      Vec v(kN);
      for (Scalar& x : v) x = 2.0 * rng.uniform() - 1.0;
      return v;
    };
    std::vector<Scalar> mass(num_workers);
    Scalar total = 0;
    for (std::size_t i = 0; i < num_workers; ++i) {
      mass[i] = 1.0 + static_cast<Scalar>((7 * i) % 5);
      total += mass[i];
    }
    std::vector<Scalar> edge_mass(topo.num_edges(), 0.0);
    edges.resize(topo.num_edges());
    for (std::size_t l = 0; l < topo.num_edges(); ++l) {
      fl::EdgeState& e = edges[l];
      e.id = l;
      for (const fl::WorkerId id : topo.workers_of_edge(l)) {
        edge_mass[l] += mass[id];
      }
      e.weight_global = edge_mass[l] / total;
      e.x_plus = random_vec();
      e.y_plus = random_vec();
      e.y_minus = random_vec();
    }
    workers.resize(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
      fl::WorkerState& w = workers[i];
      w.id = i;
      w.edge = topo.edge_of_worker(i);
      w.weight_in_edge = mass[i] / edge_mass[w.edge];
      w.weight_global = mass[i] / total;
      w.x = random_vec();
      w.y = random_vec();
      w.sum_grad = random_vec();
      w.sum_v = random_vec();
      // Σy leans against Σ∇F on even workers so the adaptive γℓ lands
      // inside (0, 0.99) rather than at a clamp.
      w.sum_y = random_vec();
      if (i % 2 == 0) vec::axpy(-0.5, w.sum_grad, w.sum_y);
      slots.push_back(static_cast<std::uint32_t>(i));
    }
    cloud.x = random_vec();
    cloud.y = random_vec();
    if (with_participation) {
      part = std::make_unique<fl::Participation>(
          topo, [mass](std::size_t i) { return mass[i]; },
          /*edge_faults=*/true);
      std::vector<fl::WorkerId> cohort(num_workers);
      std::vector<std::uint8_t> up(num_workers, 1);
      for (std::size_t i = 0; i < num_workers; ++i) {
        cohort[i] = static_cast<fl::WorkerId>(i);
      }
      up[4] = up[19] = up[20] = 0;
      std::vector<std::uint8_t> edge_up(topo.num_edges(), 1);
      edge_up[6] = 0;
      part->set_cohort_roster(cohort, up, edge_up);
    }
  }

  fl::Context context() {
    fl::Context ctx{&cfg, &topo, &worker_set, &edges, &cloud, 0};
    ctx.part = part.get();
    return ctx;
  }
};

void expect_same_state(const SweepFixture& a, const SweepFixture& b) {
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    SCOPED_TRACE("worker " + std::to_string(i));
    const fl::WorkerState& wa = a.workers[i];
    const fl::WorkerState& wb = b.workers[i];
    EXPECT_TRUE(same_bits(wa.x, wb.x));
    EXPECT_TRUE(same_bits(wa.y, wb.y));
    EXPECT_TRUE(same_bits(wa.sum_grad, wb.sum_grad));
    EXPECT_TRUE(same_bits(wa.sum_y, wb.sum_y));
    EXPECT_TRUE(same_bits(wa.sum_v, wb.sum_v));
  }
  for (std::size_t l = 0; l < a.edges.size(); ++l) {
    SCOPED_TRACE("edge " + std::to_string(l));
    const fl::EdgeState& ea = a.edges[l];
    const fl::EdgeState& eb = b.edges[l];
    EXPECT_TRUE(same_bits(ea.x_plus, eb.x_plus));
    EXPECT_TRUE(same_bits(ea.y_plus, eb.y_plus));
    EXPECT_TRUE(same_bits(ea.y_minus, eb.y_minus));
    EXPECT_TRUE(same_bits(ea.gamma_edge, eb.gamma_edge));
    EXPECT_TRUE(same_bits(ea.last_cos_theta, eb.last_cos_theta));
  }
  EXPECT_TRUE(same_bits(a.cloud.x, b.cloud.x));
  EXPECT_TRUE(same_bits(a.cloud.y, b.cloud.y));
}

// (participation, signal or fixed γ, top-k upload compressor).
using SweepCase = std::tuple<bool, int, bool>;

class FusedRoundTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FusedRoundTest, MatchesComposedPassesBitwise) {
  const auto [with_part, mode, compress] = GetParam();
  HierAdMoOptions opt;
  opt.adaptive = mode < 3;
  if (opt.adaptive) opt.signal = static_cast<HierAdMoOptions::Signal>(mode);
  if (compress) {
    opt.upload_compressor = std::make_shared<fl::TopKCompressor>(0.25);
  }
  const HierAdMo alg(opt);
  HierAdMo fused(opt);

  SweepFixture ref(with_part), got(with_part);
  fl::Context ref_ctx = ref.context();
  fl::Context got_ctx = got.context();
  std::size_t synced = 0;
  for (std::size_t l = 0; l < ref.edges.size(); ++l) {
    if (fl::active_workers(ref_ctx.part, ref.topo, l).empty()) continue;
    reference_edge_sync(alg, ref_ctx, ref.edges[l]);
    fused.edge_sync(got_ctx, got.edges[l], 1);
    ++synced;
  }
  EXPECT_EQ(synced, with_part ? 6u : 7u);
  {
    SCOPED_TRACE("after the edge rounds");
    expect_same_state(ref, got);
  }
  if (opt.adaptive) {
    // The γℓ path is exercised away from both clamps somewhere.
    bool interior = false;
    for (const fl::EdgeState& e : got.edges) {
      interior |= e.gamma_edge > 0 && e.gamma_edge < opt.clamp_max;
    }
    EXPECT_TRUE(interior);
  }

  reference_cloud_sync(ref_ctx);
  fused.cloud_sync(got_ctx, 1);
  SCOPED_TRACE("after the cloud round");
  expect_same_state(ref, got);
}

std::string sweep_case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  static const char* const kModes[] = {"MomentumValue", "Velocity",
                                       "CrossWorker", "FixedGamma"};
  const auto [with_part, mode, compress] = info.param;
  return std::string(with_part ? "Roster" : "Full") + kModes[mode] +
         (compress ? "TopK" : "Lossless");
}

INSTANTIATE_TEST_SUITE_P(
    AllRounds, FusedRoundTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 2, 3),
                       ::testing::Bool()),
    sweep_case_name);

TEST(FusedRoundEngineTest, HierAdMoRunIsThreadCountInvariant) {
  // An mlp of 19,210 parameters: above the pool's element-range cutoff, so
  // at 4 threads the cloud round splits its tiles across the pool while the
  // edge rounds run concurrently across edges.
  Rng rng(11);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 8, 8};
  spec.num_classes = 10;
  spec.train_size = 240;
  spec.test_size = 60;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const fl::Topology topo({2, 3, 1});
  const data::Partition partition =
      data::partition_iid(dataset.train, topo.num_workers(), rng);
  const nn::ModelFactory factory = nn::mlp({1, 8, 8}, 256, 10);

  fl::RunConfig cfg;
  cfg.total_iterations = 12;
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.eta = 0.05;
  cfg.gamma = 0.5;
  cfg.batch_size = 8;
  cfg.seed = 3;
  std::vector<fl::RunResult> results;
  for (const std::size_t threads : {1, 4}) {
    cfg.num_threads = threads;
    fl::Engine engine(factory, dataset, partition, topo, cfg);
    HierAdMo alg;
    results.push_back(engine.run(alg));
  }
  const fl::RunResult& serial = results[0];
  const fl::RunResult& parallel = results[1];
  ASSERT_GE(serial.final_params.size(), std::size_t{1} << 14);
  EXPECT_TRUE(same_bits(serial.final_params, parallel.final_params));
  ASSERT_EQ(serial.curve.size(), parallel.curve.size());
  for (std::size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_TRUE(same_bits(serial.curve[i].test_loss,
                          parallel.curve[i].test_loss));
    EXPECT_EQ(serial.curve[i].test_accuracy, parallel.curve[i].test_accuracy);
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

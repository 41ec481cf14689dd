// Unit coverage for the population subsystem (src/pop) and its RNG/replay
// foundations:
//
//   * Rng::fork_nth reproduces the mutating fork sequence statelessly, and
//     save_state/from_state round-trips mid-stream — the primitives behind
//     lazy worker materialization and spill/restore.
//   * AliasSampler draws match the weight distribution (frequency test) and
//     are deterministic in the stream.
//   * FenwickSampler matches a naive sequential weighted-WOR reference draw
//     for draw (integer weights keep every partial sum exact in double, so
//     tree-order and linear-order prefix sums are bit-equal), restores its
//     weights after every cohort, and its set frequencies match the exact
//     enumeration probabilities.
//   * Slab round-trips records on both backends, rewrites extents in place
//     when a record fits, and keeps honest byte accounting.
//   * Population descriptors reproduce the dense engine's weight arithmetic.
//   * FaultPlan answers scrambled and backward queries like in-order ones
//     (its trace is pinned by tests/fault_golden_test.cpp).
//   * CohortStore: deterministic cohort draws; with-replacement stores
//     sample even at cohort_size == N and reject cohort_size == 0; spill →
//     restore round-trips every mutable field (including batch-stream
//     checkpoints and signed zeros) bit-exactly; turnover contract — a
//     same-size rotation runs on recycled states and no state builds a
//     model, a
//     slab that stops growing once every worker of a fixed rotation has
//     spilled, and corrupt record lengths and non-model-sized shared
//     vectors rejected with hfl::Error.
//   * The slab's shared-vector store: bitwise-identical x/y stored once,
//     −0.0 never shared with +0.0, released storage reused over many
//     turnovers, both backends, 1 vs 4 host threads, and its telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/nn/models.h"
#include "src/obs/registry.h"
#include "src/pop/cohort_store.h"
#include "src/pop/population.h"
#include "src/pop/sampler.h"
#include "src/pop/slab.h"
#include "src/sim/fault_plan.h"
#include "tests/golden.h"

namespace hfl {
namespace {

TEST(RngCheckpointTest, ForkNthMatchesForkSequence) {
  Rng parent(99);
  std::vector<std::uint64_t> tags = {0x1217, 1000, 1001, 0xC0FFEE};
  std::vector<std::uint64_t> probes;
  for (const std::uint64_t tag : tags) {
    Rng child = parent.fork(tag);
    probes.push_back(child.next_u64());
  }
  // fork() mutates only the counter, so a fresh Rng with the same seed can
  // re-derive any fork in the sequence by (tag, ordinal).
  const Rng fresh(99);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    Rng child = fresh.fork_nth(tags[i], i + 1);
    EXPECT_EQ(child.next_u64(), probes[i]) << "fork #" << (i + 1);
  }
}

TEST(RngCheckpointTest, SaveRestoreMidStream) {
  Rng rng(7);
  for (int i = 0; i < 17; ++i) rng.uniform();
  rng.fork(3);  // counter state must round-trip too
  const RngState snap = rng.save_state();
  std::vector<Scalar> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(rng.uniform());
  Rng child = rng.fork(9);
  const Scalar child_probe = child.uniform();

  Rng back = Rng::from_state(snap);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(back.uniform(), expect[i]);
  Rng back_child = back.fork(9);
  EXPECT_EQ(back_child.uniform(), child_probe);
}

TEST(AliasSamplerTest, FrequenciesMatchWeights) {
  const std::vector<Scalar> weights = {1.0, 2.0, 3.0, 4.0};
  const pop::AliasSampler sampler(weights);
  Rng rng(11);
  const std::size_t draws = 200000;
  std::vector<std::size_t> count(weights.size(), 0);
  for (std::size_t d = 0; d < draws; ++d) ++count[sampler.draw(rng)];
  const Scalar total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const Scalar expected = weights[i] / total;
    const Scalar observed =
        static_cast<Scalar>(count[i]) / static_cast<Scalar>(draws);
    EXPECT_NEAR(observed, expected, 0.01) << "index " << i;
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverDrawn) {
  const pop::AliasSampler sampler({2.0, 0.0, 1.0, 0.0});
  Rng rng(5);
  for (int d = 0; d < 5000; ++d) {
    const std::size_t i = sampler.draw(rng);
    EXPECT_TRUE(i == 0 || i == 2);
  }
}

TEST(AliasSamplerTest, RejectsDegenerateWeights) {
  EXPECT_THROW(pop::AliasSampler({}), Error);
  EXPECT_THROW(pop::AliasSampler({0.0, 0.0}), Error);
  EXPECT_THROW(pop::AliasSampler({1.0, -0.5}), Error);
}

// Naive sequential weighted draw without replacement: same uniforms, linear
// prefix scan. Integer-valued weights keep every partial sum exact, so the
// Fenwick tree's differently-associated sums are bit-equal and the two
// implementations must agree index for index.
std::vector<std::uint32_t> naive_wor(std::vector<Scalar> w, std::size_t k,
                                     Rng& rng) {
  std::vector<std::uint32_t> out;
  for (std::size_t d = 0; d < k; ++d) {
    Scalar total = 0.0;
    for (const Scalar x : w) total += x;
    const Scalar target = rng.uniform() * total;
    Scalar acc = 0.0;
    std::size_t pick = w.size();
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w[i] <= 0.0) continue;
      acc += w[i];
      if (target < acc) {
        pick = i;
        break;
      }
    }
    if (pick == w.size()) {  // FP edge: target == total
      for (std::size_t i = w.size(); i-- > 0;) {
        if (w[i] > 0.0) {
          pick = i;
          break;
        }
      }
    }
    out.push_back(static_cast<std::uint32_t>(pick));
    w[pick] = 0.0;
  }
  return out;
}

TEST(FenwickSamplerTest, MatchesNaiveReferenceDrawForDraw) {
  Rng meta(21);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + meta.uniform_index(40);
    std::vector<Scalar> weights(n);
    std::size_t positive = 0;
    for (Scalar& w : weights) {
      w = static_cast<Scalar>(meta.uniform_index(8));  // integers, some zero
      if (w > 0.0) ++positive;
    }
    if (positive == 0) {
      weights[0] = 3.0;
      positive = 1;
    }
    const std::size_t k = 1 + meta.uniform_index(positive);
    pop::FenwickSampler sampler(weights);
    Rng a(1000 + trial), b(1000 + trial);
    EXPECT_EQ(sampler.sample(k, a), naive_wor(weights, k, b))
        << "trial " << trial << " n=" << n << " k=" << k;
  }
}

TEST(FenwickSamplerTest, RestoresWeightsBetweenCohorts) {
  pop::FenwickSampler sampler({1.0, 2.0, 3.0, 4.0, 5.0});
  Rng a(3), b(3);
  const auto first = sampler.sample(3, a);
  const auto second = sampler.sample(3, b);  // same stream → same cohort
  EXPECT_EQ(first, second);
}

TEST(FenwickSamplerTest, SetFrequenciesMatchEnumeration) {
  // P({a,b}) = P(a)P(b | not a) + P(b)P(a | not b), enumerated exactly.
  const std::vector<Scalar> w = {1.0, 2.0, 3.0};
  const Scalar total = 6.0;
  std::map<std::pair<int, int>, Scalar> exact;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      const std::pair<int, int> key{std::min(a, b), std::max(a, b)};
      exact[key] += (w[a] / total) * (w[b] / (total - w[a]));
    }
  }
  pop::FenwickSampler sampler(w);
  Rng rng(17);
  const std::size_t trials = 60000;
  std::map<std::pair<int, int>, std::size_t> count;
  for (std::size_t t = 0; t < trials; ++t) {
    auto ids = sampler.sample(2, rng);
    const int a = static_cast<int>(ids[0]), b = static_cast<int>(ids[1]);
    ++count[{std::min(a, b), std::max(a, b)}];
  }
  for (const auto& [key, p] : exact) {
    const Scalar observed =
        static_cast<Scalar>(count[key]) / static_cast<Scalar>(trials);
    EXPECT_NEAR(observed, p, 0.01)
        << "{" << key.first << "," << key.second << "}";
  }
}

TEST(FenwickSamplerTest, RejectsOversizedCohort) {
  pop::FenwickSampler sampler({1.0, 0.0, 2.0});
  Rng rng(1);
  EXPECT_NO_THROW(sampler.sample(2, rng));
  EXPECT_THROW(sampler.sample(3, rng), Error);  // only 2 positive weights
}

void slab_round_trip(pop::SlabConfig cfg) {
  pop::Slab slab(cfg);
  const std::vector<char> a = {'a', 'b', 'c'};
  const std::vector<char> b(1000, 'x');
  std::vector<char> buf;
  const auto get = [&](std::uint32_t id) {
    const std::span<const char> rec = slab.get(id, buf).bytes;
    return std::vector<char>(rec.begin(), rec.end());
  };
  slab.put(7, a);
  slab.put(42, b);
  EXPECT_TRUE(slab.contains(7));
  EXPECT_FALSE(slab.contains(8));
  EXPECT_EQ(get(7), a);
  EXPECT_EQ(get(42), b);
  EXPECT_EQ(slab.bytes(), a.size() + b.size());

  const std::vector<char> a2 = {'z', 'z'};
  slab.put(7, a2);  // shorter rewrite: in place
  EXPECT_EQ(get(7), a2);
  EXPECT_EQ(get(42), b);
  EXPECT_EQ(slab.bytes(), a.size() + b.size());
  const std::vector<char> a3(8, 'q');
  slab.put(7, a3);  // longer rewrite: moves to a new extent
  EXPECT_EQ(get(7), a3);
  EXPECT_EQ(get(42), b);
  EXPECT_EQ(slab.bytes(), a.size() + b.size() + a3.size());
  EXPECT_EQ(slab.num_entries(), 2u);
  EXPECT_EQ(slab.peak_bytes(), slab.bytes());
  EXPECT_EQ(slab.bytes_written(),
            a.size() + b.size() + a2.size() + a3.size());
  slab.clear();
  EXPECT_EQ(slab.num_entries(), 0u);
  EXPECT_EQ(slab.bytes(), 0u);
  EXPECT_FALSE(slab.contains(7));
}

TEST(SlabTest, MemoryBackendRoundTrip) {
  slab_round_trip(pop::SlabConfig{});
}

TEST(SlabTest, FileBackendRoundTrip) {
  pop::SlabConfig cfg;
  cfg.backend = pop::SlabConfig::Backend::kFile;
  cfg.path = ::testing::TempDir() + "hfl_pop_slab_test.bin";
  slab_round_trip(cfg);
  std::remove(cfg.path.c_str());
}

struct PopFixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(2, 4)};  // 2 edges × 4 workers
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg;

  PopFixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 2;
    spec.train_size = 64;
    spec.test_size = 16;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 2, 2}, 2);
    cfg.total_iterations = 8;
    cfg.tau = 2;
    cfg.pi = 2;
    cfg.batch_size = 4;
    cfg.seed = 5;
  }
};

TEST(PopulationTest, DescriptorsMatchDenseArithmetic) {
  PopFixture f;
  const pop::Population pop(f.topo, f.partition);
  ASSERT_EQ(pop.num_workers(), f.topo.num_workers());
  std::size_t total = 0;
  std::vector<std::size_t> per_edge(f.topo.num_edges(), 0);
  for (std::size_t w = 0; w < f.topo.num_workers(); ++w) {
    total += f.partition[w].size();
    per_edge[f.topo.edge_of_worker(w)] += f.partition[w].size();
  }
  for (std::size_t w = 0; w < pop.num_workers(); ++w) {
    EXPECT_EQ(pop.edge_of(w), f.topo.edge_of_worker(w));
    EXPECT_EQ(pop.num_samples(w), f.partition[w].size());
    EXPECT_EQ(pop.weight_in_edge(w),
              static_cast<Scalar>(f.partition[w].size()) /
                  static_cast<Scalar>(per_edge[f.topo.edge_of_worker(w)]));
    EXPECT_EQ(pop.weight_global(w),
              static_cast<Scalar>(f.partition[w].size()) /
                  static_cast<Scalar>(total));
  }
  const std::vector<Scalar> base = pop.base_weights();
  ASSERT_EQ(base.size(), pop.num_workers());
  for (std::size_t w = 0; w < base.size(); ++w) {
    EXPECT_EQ(base[w], static_cast<Scalar>(f.partition[w].size()));
  }
}

TEST(FaultPlanQueryTest, QueryOrderIndependent) {
  PopFixture f;
  const sim::FaultConfig fc = golden::fault_zoo(5);
  const std::size_t intervals = 6;
  // The in-order answers of one plan...
  const sim::FaultPlan ordered(f.topo.num_workers(), f.topo.num_edges(), fc);
  std::vector<std::uint8_t> worker_up, edge_up;  // [k-1][id]
  for (std::size_t k = 1; k <= intervals; ++k) {
    for (std::size_t w = 0; w < f.topo.num_workers(); ++w) {
      worker_up.push_back(ordered.worker_available(k, w) ? 1 : 0);
    }
    for (std::size_t e = 0; e < f.topo.num_edges(); ++e) {
      edge_up.push_back(ordered.edge_available(k, e) ? 1 : 0);
    }
  }
  // ...must equal a second plan's answers to scrambled and backward queries.
  const sim::FaultPlan scrambled(f.topo.num_workers(), f.topo.num_edges(),
                                 fc);
  Rng order(9);
  for (int q = 0; q < 400; ++q) {
    const std::size_t k = 1 + order.uniform_index(intervals);
    const std::size_t w = order.uniform_index(f.topo.num_workers());
    EXPECT_EQ(scrambled.worker_available(k, w),
              worker_up[(k - 1) * f.topo.num_workers() + w] != 0)
        << "k=" << k << " w=" << w;
  }
  for (int q = 0; q < 100; ++q) {
    const std::size_t k = 1 + order.uniform_index(intervals);
    const std::size_t e = order.uniform_index(f.topo.num_edges());
    EXPECT_EQ(scrambled.edge_available(k, e),
              edge_up[(k - 1) * f.topo.num_edges() + e] != 0);
  }
}

TEST(FaultPlanQueryTest, ReportsAbsentPolicy) {
  sim::FaultConfig fc;
  fc.dropout.prob = 0.2;
  fc.absent_policy = fl::AbsentPolicy::kDecay;
  fc.absent_decay = 0.25;
  const sim::FaultPlan plan(4, 2, fc);
  EXPECT_EQ(plan.absent_policy(), fl::AbsentPolicy::kDecay);
  EXPECT_EQ(plan.absent_decay(), 0.25);
}

pop::CohortStore make_store(const PopFixture& f, std::size_t cohort,
                            bool with_replacement = false,
                            pop::SlabConfig slab = {}) {
  pop::VirtConfig vc;
  vc.cohort_size = cohort;
  vc.with_replacement = with_replacement;
  vc.slab = std::move(slab);
  return pop::CohortStore(f.factory, f.dataset, f.partition, f.topo, f.cfg,
                          vc);
}

pop::SlabConfig file_slab(const std::string& name) {
  pop::SlabConfig cfg;
  cfg.backend = pop::SlabConfig::Backend::kFile;
  cfg.path = ::testing::TempDir() + name;
  return cfg;
}

// Same index order, cursor and shuffle-RNG state.
bool same_stream(const data::Batcher& a, const data::Batcher& b) {
  const RngState ra = a.rng_state();
  const RngState rb = b.rng_state();
  return a.indices() == b.indices() && a.cursor() == b.cursor() &&
         std::equal(std::begin(ra.s), std::end(ra.s), std::begin(rb.s)) &&
         ra.fork_counter == rb.fork_counter;
}

// Bitwise equality: tells −0.0 from +0.0, unlike Vec's operator==.
bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||  // an empty Vec's data() may be null
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0);
}

TEST(CohortStoreTest, CohortDrawsDeterministicPerRound) {
  PopFixture f;
  auto a = make_store(f, 3);
  auto b = make_store(f, 3);
  std::vector<fl::WorkerId> ids_a, ids_b;
  std::vector<Scalar> mult_a, mult_b;
  // Query rounds out of order on one store: draws depend on (seed, k) only.
  for (const std::size_t k : {3u, 1u, 2u}) {
    a.sample_cohort(k, ids_a, mult_a);
    const auto first = ids_a;
    b.sample_cohort(k, ids_b, mult_b);
    EXPECT_EQ(ids_a, ids_b) << "k=" << k;
    a.sample_cohort(k, ids_a, mult_a);
    EXPECT_EQ(ids_a, first) << "re-draw k=" << k;
    EXPECT_TRUE(std::is_sorted(ids_a.begin(), ids_a.end()));
    EXPECT_EQ(std::adjacent_find(ids_a.begin(), ids_a.end()), ids_a.end());
    EXPECT_EQ(ids_a.size(), 3u);  // WOR: exactly cohort_size distinct ids
    for (const Scalar m : mult_a) EXPECT_EQ(m, 1.0);
  }
}

TEST(CohortStoreTest, WithReplacementMultiplicitiesSumToCohortSize) {
  PopFixture f;
  auto store = make_store(f, 6, /*with_replacement=*/true);
  std::vector<fl::WorkerId> ids;
  std::vector<Scalar> mult;
  for (std::size_t k = 1; k <= 5; ++k) {
    store.sample_cohort(k, ids, mult);
    ASSERT_EQ(ids.size(), mult.size());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    Scalar total = 0.0;
    for (const Scalar m : mult) {
      EXPECT_GE(m, 1.0);
      total += m;
    }
    EXPECT_EQ(total, 6.0);
  }
}

TEST(CohortStoreTest, WithReplacementSamplesAtPopulationSize) {
  PopFixture f;
  const std::size_t n = f.topo.num_workers();
  auto store = make_store(f, n, /*with_replacement=*/true);
  EXPECT_TRUE(store.sampling());
  std::vector<fl::WorkerId> ids;
  std::vector<Scalar> mult;
  bool repeated = false;
  for (std::size_t k = 1; k <= 5; ++k) {
    store.sample_cohort(k, ids, mult);
    EXPECT_EQ(std::accumulate(mult.begin(), mult.end(), 0.0),
              static_cast<Scalar>(n));
    repeated = repeated || ids.size() < n;
  }
  // N i.i.d. draws over N workers, not the deterministic full cohort.
  EXPECT_TRUE(repeated);
}

TEST(CohortStoreTest, WithReplacementRequiresCohortSize) {
  PopFixture f;
  EXPECT_THROW(make_store(f, 0, /*with_replacement=*/true), Error);
}

TEST(CohortStoreTest, SpillRestoreRoundTripsEveryMutableField) {
  PopFixture f;
  auto rotated = make_store(f, 2);
  auto pinned = make_store(f, 2);
  const Vec x0(8, 0.5);
  rotated.begin_run(x0);
  pinned.begin_run(x0);
  rotated.set_cohort({0, 2});
  pinned.set_cohort({0, 2});

  // Identical mutations on both stores' worker 0: momentum-ish vectors and
  // consumed batch draws.
  const auto mutate = [](fl::WorkerState& w) {
    const Tensor* bx = nullptr;
    const std::vector<std::size_t>* by = nullptr;
    for (int d = 0; d < 3; ++d) w.draw_batch(bx, by);
    w.sum_v.assign(w.x.size(), 0.0);  // as HierAdMo's kVelocity sizes it
    for (std::size_t i = 0; i < w.x.size(); ++i) {
      w.x[i] += 0.25 * static_cast<Scalar>(i);
      w.sum_v[i] = 1.0 / static_cast<Scalar>(i + 1);
      w.sum_grad[i] = -0.125 * static_cast<Scalar>(i);
    }
    w.last_loss = 0.625;
    // A signed zero comes back with its sign; a partly-zero accumulator
    // comes back bit-exactly.
    w.y[1] = -0.0;
    w.sum_y[3] = 2.5;
  };
  mutate(rotated.workers()[0]);
  mutate(pinned.workers()[0]);

  rotated.set_cohort({2});     // spill worker 0
  EXPECT_FALSE(rotated.workers().is_materialized(0));
  EXPECT_EQ(rotated.num_materialized(), 1u);
  rotated.set_cohort({0, 2});  // restore it
  ASSERT_TRUE(rotated.workers().is_materialized(0));

  fl::WorkerState& a = rotated.workers()[0];
  fl::WorkerState& b = pinned.workers()[0];
  EXPECT_TRUE(same_bits(a.x, b.x));
  EXPECT_TRUE(same_bits(a.y, b.y));
  EXPECT_TRUE(std::signbit(a.y[1]));
  EXPECT_EQ(a.last_loss, b.last_loss);
  EXPECT_TRUE(same_bits(a.sum_grad, b.sum_grad));
  EXPECT_TRUE(same_bits(a.sum_y, b.sum_y));
  EXPECT_TRUE(same_bits(a.sum_v, b.sum_v));
  EXPECT_EQ(a.weight_in_edge, b.weight_in_edge);
  EXPECT_EQ(a.weight_global, b.weight_global);

  // Batch streams resume exactly where the spilled worker left off.
  EXPECT_TRUE(same_stream(*a.batcher, *b.batcher));
  EXPECT_TRUE(same_stream(*a.aux_batcher, *b.aux_batcher));
  const Tensor *ax = nullptr, *bx = nullptr;
  const std::vector<std::size_t>*ay = nullptr, *by = nullptr;
  for (int d = 0; d < 4; ++d) {
    a.draw_batch(ax, ay);
    b.draw_batch(bx, by);
    EXPECT_EQ(*ay, *by) << "post-restore draw " << d;
  }
}

TEST(CohortStoreTest, FreshMaterializationMatchesAcrossStores) {
  PopFixture f;
  auto a = make_store(f, 2);
  auto b = make_store(f, 2);
  const Vec x0(8, 0.125);
  a.begin_run(x0);
  b.begin_run(x0);
  a.set_cohort({1, 3});
  // Materialization order must not matter: store b meets worker 3 first.
  b.set_cohort({3});
  b.set_cohort({1, 3});
  for (const fl::WorkerId id : {1u, 3u}) {
    EXPECT_TRUE(same_stream(*a.workers()[id].batcher,
                            *b.workers()[id].batcher))
        << "worker " << id;
  }
}

// Turnover contract: once the first cohort is built, a same-size rotation
// runs on recycled states — the cohort keeps the first cohort's batchers —
// and no state ever builds a model: the factory is never called.
TEST(CohortStoreTest, SameSizeRotationNeverCallsTheFactory) {
  PopFixture f;
  std::size_t calls = 0;
  const nn::ModelFactory inner = f.factory;
  f.factory = [&calls, inner] {
    ++calls;
    return inner();
  };
  auto store = make_store(f, 2);
  const auto batchers = [&store] {
    std::vector<const data::Batcher*> out;
    for (const fl::WorkerState& w : store.workers()) {
      out.push_back(w.batcher.get());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  store.begin_run(Vec(8, 0.25));
  store.set_cohort({0, 1});
  const std::vector<const data::Batcher*> first = batchers();
  const std::vector<std::vector<fl::WorkerId>> rotation = {
      {2, 3}, {1, 4}, {5, 6}, {0, 7}, {0, 1}, {3, 6}, {2, 5}};
  for (std::size_t k = 0; k < rotation.size(); ++k) {
    store.begin_interval(k + 1);
    store.set_cohort(rotation[k]);
    EXPECT_EQ(batchers(), first) << "interval " << k + 1;
  }
  // A fresh run drops the spares and builds its first cohort anew.
  store.begin_run(Vec(8, 0.25));
  store.set_cohort({0, 1, 2});
  EXPECT_EQ(store.num_materialized(), 3u);
  EXPECT_EQ(calls, 0u);
}

// Turnover contract: a re-spill rewrites the worker's extent in place and
// releases its old shared vectors, so once every worker of a fixed rotation
// has spilled the slab grows by at most one vector. Every worker moves x by
// the same step, so after the first pass all eight records share one x;
// the next pass's x is one new vector while the old one is still held, and
// from then on each new x takes the storage the previous one freed.
void slab_stays_flat(pop::SlabConfig slab) {
  PopFixture f;
  auto store = make_store(f, 2, false, slab);
  store.begin_run(Vec(8, 0.25));
  const std::vector<std::vector<fl::WorkerId>> rotation = {
      {0, 1}, {2, 3}, {4, 5}, {6, 7}};
  std::size_t k = 0;
  const auto cycle = [&] {
    for (const auto& ids : rotation) {
      store.begin_interval(++k);
      store.set_cohort(ids);
      for (fl::WorkerState& w : store.workers()) {  // mutate between spills
        const Tensor* bx = nullptr;
        const std::vector<std::size_t>* by = nullptr;
        w.draw_batch(bx, by);
        for (Scalar& x : w.x) x += 0.5;
      }
    }
  };
  cycle();
  store.begin_interval(++k);
  store.set_cohort({0, 1});  // workers 6 and 7 spill: all eight have once
  const std::uint64_t settled = store.slab().bytes();
  EXPECT_GT(settled, 0u);
  cycle();
  EXPECT_EQ(store.slab().bytes(), settled + 8 * sizeof(Scalar));
  const std::uint64_t flat = store.slab().bytes();
  for (int c = 0; c < 3; ++c) {
    cycle();
    EXPECT_EQ(store.slab().bytes(), flat) << "cycle " << c;
  }
  EXPECT_EQ(store.slab().num_entries(), 8u);
}

TEST(CohortStoreTest, MemorySlabStaysFlatUnderRotation) {
  slab_stays_flat(pop::SlabConfig{});
}

TEST(CohortStoreTest, FileSlabStaysFlatUnderRotation) {
  const pop::SlabConfig slab = file_slab("hfl_pop_flat_test.bin");
  slab_stays_flat(slab);
  std::remove(slab.path.c_str());
}

// A default-signal worker's spill record, byte for byte, in the layout
// src/pop/cohort_store.h documents: x and y not in the record but in the
// slab's shared vectors, the interval accumulators zero-tagged, Σv an
// empty vector (HierAdMo sizes it only under kVelocity), and no gradient
// or velocity vector anywhere. The file backend appends in spill order, so the spill
// file holds the two shared vectors the record is the first to reference,
// then the record.
TEST(CohortStoreTest, DefaultSignalSpillRecordHasDocumentedLayout) {
  PopFixture f;
  const pop::SlabConfig slab = file_slab("hfl_pop_layout_test.bin");
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kVecBytes = kDim * sizeof(Scalar);
  struct StreamPos {
    std::size_t cursor = 0;
    RngState rng;
    std::vector<std::size_t> indices;
  };
  const auto position = [](const data::Batcher& b) {
    return StreamPos{b.cursor(), b.rng_state(), b.indices()};
  };
  Vec x, y;
  StreamPos main_stream, aux_stream;
  std::uint64_t length = 0;
  {
    auto store = make_store(f, 2, false, slab);
    store.begin_run(Vec(kDim, 0.25));
    store.begin_interval(3);
    store.set_cohort({0, 1});
    fl::WorkerState& w = store.workers()[0];
    EXPECT_TRUE(w.sum_v.empty());
    const Tensor* bx = nullptr;
    const std::vector<std::size_t>* by = nullptr;
    w.draw_batch(bx, by);
    for (std::size_t i = 0; i < kDim; ++i) {
      w.x[i] = 0.5 + static_cast<Scalar>(i);
      w.y[i] = -0.25 * static_cast<Scalar>(i + 1);
    }
    w.last_loss = 0.75;
    x = w.x;
    y = w.y;
    main_stream = position(*w.batcher);
    aux_stream = position(*w.aux_batcher);
    store.set_cohort({1});  // spill worker 0: the slab's only record
    EXPECT_EQ(store.slab().num_shared(), 2u);
    EXPECT_EQ(store.slab().shared_bytes(), 2 * kVecBytes);
    length = store.slab().bytes_written();
  }  // closing the store flushes the spill file

  std::ifstream file(slab.path, std::ios::binary);
  ASSERT_TRUE(file.is_open());
  std::vector<char> spilled(length);
  file.read(spilled.data(), static_cast<std::streamsize>(length));
  ASSERT_TRUE(file.good());
  std::remove(slab.path.c_str());
  ASSERT_GT(length, 2 * kVecBytes);
  const auto shared_vec = [&](std::size_t sid) {
    Vec v(kDim);
    std::memcpy(v.data(), spilled.data() + sid * kVecBytes, kVecBytes);
    return v;
  };
  EXPECT_TRUE(same_bits(shared_vec(0), x));
  EXPECT_TRUE(same_bits(shared_vec(1), y));
  const std::vector<char> record(spilled.begin() + 2 * kVecBytes,
                                 spilled.end());

  std::size_t at = 0;
  const auto take = [&](void* out, std::size_t n) {
    ASSERT_LE(at + n, record.size());
    std::memcpy(out, record.data() + at, n);
    at += n;
  };
  const auto u64 = [&] {
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
  };
  const auto tag = [&] {
    std::uint8_t t = 0xFF;
    take(&t, 1);
    return t;
  };
  const auto zero_vec = [&](std::uint64_t n, const char* name) {
    SCOPED_TRACE(name);
    EXPECT_EQ(u64(), n);
    EXPECT_EQ(tag(), 1);  // every element +0.0, nothing follows
  };
  const auto stream = [&](const StreamPos& want, const char* name) {
    SCOPED_TRACE(name);
    EXPECT_EQ(u64(), want.cursor);
    for (const std::uint64_t word : want.rng.s) EXPECT_EQ(u64(), word);
    EXPECT_EQ(u64(), want.rng.fork_counter);
    EXPECT_EQ(u64(), want.indices.size());
    for (const std::size_t i : want.indices) {
      std::uint32_t got = 0;
      take(&got, sizeof got);
      EXPECT_EQ(got, i);
    }
  };

  Scalar loss = 0;
  take(&loss, sizeof loss);
  EXPECT_EQ(loss, 0.75);
  zero_vec(kDim, "sum_grad");
  zero_vec(kDim, "sum_y");
  zero_vec(0, "sum_v");
  stream(main_stream, "main batcher");
  stream(aux_stream, "aux batcher");
  EXPECT_EQ(u64(), 3u);  // interval stamp
  EXPECT_EQ(at, record.size());
}

constexpr std::size_t kCorruptDim = 8;

// A spill record's lengths are checked against the bytes left before
// anything is sized: a corrupt length raises hfl::Error, not
// std::length_error or std::bad_alloc. Overwrites the u64 at byte `offset`
// of worker 0's record with `length`. A fresh worker's x and y are both x0,
// so the spill file opens with that one shared vector, then worker 0's
// record.
void expect_corrupt_length_rejected(std::size_t offset, std::uint64_t length) {
  PopFixture f;
  const pop::SlabConfig slab = file_slab("hfl_pop_corrupt_test.bin");
  constexpr std::size_t kRecordStart = kCorruptDim * sizeof(Scalar);
  {
    auto store = make_store(f, 2, false, slab);
    store.begin_run(Vec(kCorruptDim, 0.25));
    store.set_cohort({0, 1});
    store.set_cohort({2});     // x0, then worker 0's record, open the file
    ASSERT_EQ(store.slab().num_shared(), 1u);
    store.set_cohort({1, 2});  // restoring worker 1 flushes the writes
    {
      std::fstream file(slab.path,
                        std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(file.is_open());
      file.seekp(static_cast<std::streamoff>(kRecordStart + offset));
      file.write(reinterpret_cast<const char*>(&length), sizeof length);
      ASSERT_TRUE(file.good());
    }
    EXPECT_THROW(store.set_cohort({0, 1, 2}), Error) << "length " << length;
  }
  std::remove(slab.path.c_str());
}

// The byte offset of every length word in that record, from the layout
// src/pop/cohort_store.h documents: x and y are shared vectors, not record
// bytes, a fresh worker's interval accumulators are zero-tagged, and Σv is
// empty.
std::vector<std::pair<std::string, std::size_t>> record_length_offsets() {
  PopFixture f;
  auto store = make_store(f, 2);
  store.begin_run(Vec(kCorruptDim, 0.25));
  store.set_cohort({0, 1});
  const fl::WorkerState& w = store.workers()[0];
  std::vector<std::pair<std::string, std::size_t>> offsets;
  std::size_t at = 0;
  const auto vec = [&](const char* name, std::size_t scalars) {
    offsets.emplace_back(name, at);
    at += sizeof(std::uint64_t) + 1 + scalars * sizeof(Scalar);
  };
  const auto stream = [&](const char* name, const data::Batcher& b) {
    at += 6 * sizeof(std::uint64_t);  // cursor, 5 × u64 RNG state
    offsets.emplace_back(name, at);
    at += sizeof(std::uint64_t) + b.indices().size() * sizeof(std::uint32_t);
  };
  at += sizeof(Scalar);  // last_loss
  vec("sum_grad", 0);
  vec("sum_y", 0);
  vec("sum_v", 0);
  stream("main batcher indices", *w.batcher);
  stream("aux batcher indices", *w.aux_batcher);
  return offsets;
}

TEST(CohortStoreTest, CorruptRecordLengthRaisesError) {
  for (const auto& [field, offset] : record_length_offsets()) {
    SCOPED_TRACE(field);
    expect_corrupt_length_rejected(offset, ~std::uint64_t{0});
    expect_corrupt_length_rejected(offset, std::uint64_t{1} << 48);
  }
}

// x and y are model-sized by contract; a record whose shared vector is not
// raises hfl::Error on restore instead of resizing the worker.
TEST(CohortStoreTest, NonModelSizedSharedVectorRaisesError) {
  PopFixture f;
  auto store = make_store(f, 2);
  store.begin_run(Vec(kCorruptDim, 0.25));
  store.set_cohort({0, 1});
  store.workers()[0].x.resize(kCorruptDim / 2);
  store.set_cohort({1});  // spill worker 0
  EXPECT_THROW(store.set_cohort({0, 1}), Error);
}

// ---- the slab's shared-vector store --------------------------------------

// Every mutable field of a materialized worker, byte for byte.
void expect_same_state(const fl::WorkerState& a, const fl::WorkerState& b) {
  EXPECT_TRUE(same_bits(a.x, b.x));
  EXPECT_TRUE(same_bits(a.y, b.y));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.last_loss),
            std::bit_cast<std::uint64_t>(b.last_loss));
  EXPECT_TRUE(same_bits(a.sum_grad, b.sum_grad));
  EXPECT_TRUE(same_bits(a.sum_y, b.sum_y));
  EXPECT_TRUE(same_bits(a.sum_v, b.sum_v));
  EXPECT_TRUE(same_stream(*a.batcher, *b.batcher));
  EXPECT_TRUE(same_stream(*a.aux_batcher, *b.aux_batcher));
}

// Two departing workers with bitwise-identical x and y add one stored copy
// of each: the second spill grows the slab by its record only. Vectors
// equal under == but not bitwise (−0.0 vs +0.0) are not shared, and the
// sign comes back on restore.
void shared_store_round_trip(pop::SlabConfig slab) {
  PopFixture f;
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kVecBytes = kDim * sizeof(Scalar);
  auto store = make_store(f, 4, false, slab);
  store.begin_run(Vec(kDim, 0.25));
  store.set_cohort({0, 1, 2, 3});
  for (fl::WorkerState& w : store.workers()) {
    for (Scalar& v : w.x) v = 1.5;  // the same broadcast x for everyone
  }
  store.workers()[2].y[0] = 0.0;   // +0.0
  store.workers()[3].y[0] = -0.0;  // == +0.0, other bits
  std::vector<fl::WorkerState> want(4);
  for (std::size_t id = 0; id < 4; ++id) {
    const fl::WorkerState& w = store.workers()[id];
    want[id].x = w.x;
    want[id].y = w.y;
  }

  store.set_cohort({1, 2, 3});  // spill worker 0
  const pop::Slab& s = store.slab();
  EXPECT_EQ(s.num_shared(), 2u);  // x = 1.5, y = x0
  EXPECT_EQ(s.shared_bytes(), 2 * kVecBytes);
  const std::uint64_t one = s.bytes();
  store.set_cohort({2, 3});  // spill worker 1: identical x and y
  EXPECT_EQ(s.num_shared(), 2u);
  EXPECT_EQ(s.shared_hits(), 2u);
  const std::uint64_t record = s.bytes() - one;
  EXPECT_EQ(one, record + 2 * kVecBytes);
  store.set_cohort({0});  // spill workers 2 and 3: two new y vectors
  EXPECT_EQ(s.num_shared(), 4u);
  EXPECT_EQ(s.shared_hits(), 4u);

  store.set_cohort({0, 1, 2, 3});  // restore all four
  for (std::size_t id = 0; id < 4; ++id) {
    SCOPED_TRACE(id);
    EXPECT_TRUE(same_bits(store.workers()[id].x, want[id].x));
    EXPECT_TRUE(same_bits(store.workers()[id].y, want[id].y));
  }
  EXPECT_FALSE(std::signbit(store.workers()[2].y[0]));
  EXPECT_TRUE(std::signbit(store.workers()[3].y[0]));
}

TEST(SharedVectorStoreTest, MemoryBackendSharesOnlyIdenticalBytes) {
  shared_store_round_trip(pop::SlabConfig{});
}

TEST(SharedVectorStoreTest, FileBackendSharesOnlyIdenticalBytes) {
  const pop::SlabConfig slab = file_slab("hfl_pop_shared_test.bin");
  shared_store_round_trip(slab);
  std::remove(slab.path.c_str());
}

// A rotating cohort whose broadcast changes every round: the workers that
// spill hold vectors no earlier round held, yet once every record has been
// rewritten the slab stops growing, because released vectors hand their
// storage to new ones.
TEST(SharedVectorStoreTest, ReleasedStorageIsReusedAcrossTurnovers) {
  PopFixture f;
  constexpr std::size_t kDim = 8;
  auto store = make_store(f, 2);
  store.begin_run(Vec(kDim, 0.25));
  const std::vector<std::vector<fl::WorkerId>> rotation = {
      {0, 1}, {2, 3}, {4, 5}, {6, 7}};
  std::uint64_t settled = 0;
  for (std::size_t k = 1; k <= 60; ++k) {
    store.begin_interval(k);
    store.set_cohort(rotation[k % rotation.size()]);
    for (fl::WorkerState& w : store.workers()) {
      for (Scalar& v : w.x) v = static_cast<Scalar>(k);  // round k's model
      w.y = w.x;
    }
    // Live vectors after a turnover: one per pair, the broadcast of the
    // round that pair last spilled in (x and y are the same bytes).
    EXPECT_LE(store.slab().num_shared(), rotation.size());
    if (k == 12) settled = store.slab().bytes();
    if (k > 12) {
      EXPECT_EQ(store.slab().bytes(), settled) << "turnover " << k;
    }
  }
  EXPECT_EQ(store.slab().num_entries(), 8u);
}

// Interning runs serially in ascending departure order, so the slab's
// contents do not depend on the host pool: 1 and 4 threads give the same
// slab bytes, the same shared set and byte-identical restored states.
TEST(SharedVectorStoreTest, HostPoolSizeDoesNotChangeTheSlab) {
  PopFixture f;
  constexpr std::size_t kDim = 8;
  ThreadPool one(1), four(4);
  auto a = make_store(f, 4);
  auto b = make_store(f, 4);
  a.attach_pool(&one);
  b.attach_pool(&four);
  const std::vector<std::vector<fl::WorkerId>> rotation = {
      {0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}, {0, 1, 6, 7}, {1, 3, 5, 7}};
  for (pop::CohortStore* store : {&a, &b}) {
    store->begin_run(Vec(kDim, 0.25));
    for (std::size_t k = 0; k < 3 * rotation.size(); ++k) {
      store->begin_interval(k + 1);
      store->set_cohort(rotation[k % rotation.size()]);
      for (fl::WorkerState& w : store->workers()) {
        const Tensor* bx = nullptr;
        const std::vector<std::size_t>* by = nullptr;
        w.draw_batch(bx, by);
        // Round k's broadcast x for everyone, a per-worker y every other
        // round.
        for (Scalar& v : w.x) v = static_cast<Scalar>(k / 2);
        if (k % 2 == 1) w.y[w.id % kDim] += 1.0;
      }
    }
  }
  EXPECT_EQ(a.slab().bytes(), b.slab().bytes());
  EXPECT_EQ(a.slab().bytes_written(), b.slab().bytes_written());
  EXPECT_EQ(a.slab().num_shared(), b.slab().num_shared());
  EXPECT_EQ(a.slab().shared_hits(), b.slab().shared_hits());
  a.set_cohort({0, 1, 2, 3, 4, 5, 6, 7});
  b.set_cohort({0, 1, 2, 3, 4, 5, 6, 7});
  for (std::size_t id = 0; id < 8; ++id) {
    SCOPED_TRACE(id);
    expect_same_state(a.workers()[id], b.workers()[id]);
  }
}

// The shared store's telemetry: live vectors and bytes as gauges, spills
// that found an equal vector stored as a counter.
TEST(SharedVectorStoreTest, PublishesSharedStoreTelemetry) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  obs::set_enabled(true);
  PopFixture f;
  constexpr std::size_t kDim = 8;
  auto store = make_store(f, 2);
  store.begin_run(Vec(kDim, 0.25));
  store.set_cohort({0, 1});
  store.set_cohort({2, 3});  // spill two fresh workers: x = y = x0
  obs::set_enabled(false);
  EXPECT_EQ(reg.gauge("pop.slab.shared_vectors").value(), 1.0);
  EXPECT_EQ(reg.gauge("pop.slab.shared_bytes").value(),
            static_cast<double>(kDim * sizeof(Scalar)));
  EXPECT_EQ(reg.counter("pop.spill.shared_hits").value(), 3u);
  EXPECT_EQ(reg.gauge("pop.slab.peak_bytes").value(),
            static_cast<double>(store.slab().bytes()));
  reg.reset();
}

}  // namespace
}  // namespace hfl

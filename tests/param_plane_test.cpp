// Parameter-plane hot-path coverage: the fused vec kernels, the O(cohort)
// sparse roster, the incremental miss accounting, and the spill-time
// absent-policy replay of sampled populations.
//
//   * Fused kernels (src/common/vec_ops.h): every kernel's scalar tail is
//     built from std::fma so it reproduces the SIMD lanes' rounding exactly.
//     Two observable contracts follow, both asserted here bit-for-bit:
//     references written directly as the documented per-element std::fma
//     expressions must match, and splitting the index range into subspans
//     (which shifts elements between SIMD body and scalar tail) must not
//     change a single bit. The one-pass cosine must equal the three-pass
//     dot/sqrt reference, and a tile-by-tile weighted sum the one-call sum.
//
//   * Participation::set_cohort_roster must equal a naive whole-population
//     renormalization written out in this file, bitwise — every weight
//     visits the same members in the same order — and an interleaved
//     edge-only roster must leave the all-absent baseline behind. Its
//     roster-aligned layout keeps only a 4-byte position per worker:
//     successive overlapping and disjoint rosters read back hand-computed
//     weights, off-roster ids read inactive with weight 0, and a 512-id
//     roster over a million workers holds 4 B·N plus O(roster + edges).
//
//   * The engine's miss accounting counts participation hits and turns
//     them into misses at finalize; counting absences straight off the
//     fault plan's answers is the oracle it must match exactly.
//
//   * Sampled virtualized runs with kReset/kDecay absent policies replay the
//     policy per missed interval at restore (src/pop/cohort_store.h); a
//     full-cohort run on the induced availability applying the policy every
//     interval is the bit-identity oracle, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/vec_ops.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/availability.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"

namespace hfl::fl {
namespace {

// ---------------------------------------------------------------------------
// Fused kernels.
// ---------------------------------------------------------------------------

// Deterministic pseudo-random fill (values in roughly [-1, 1]).
Vec test_vec(std::size_t n, std::uint64_t salt) {
  Rng rng(0xBEEF ^ salt);
  Vec v(n);
  for (Scalar& e : v) e = 2.0 * rng.uniform() - 1.0;
  return v;
}

// Odd length so the AVX2 body leaves a scalar tail; odd split so subrange
// calls shift elements between body and tail.
constexpr std::size_t kN = 103;
constexpr std::size_t kSplit = 29;

TEST(FusedKernelTest, AxpbyMatchesFmaReference) {
  Vec x = test_vec(kN, 1), y = test_vec(kN, 2), ref = y;
  vec::axpby(0.3, x, 0.7, y);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = std::fma(0.3, x[i], 0.7 * ref[i]);
  EXPECT_EQ(y, ref);
}

TEST(FusedKernelTest, MomentumStepMatchesFmaReference) {
  Vec m = test_vec(kN, 3), g = test_vec(kN, 4), p = test_vec(kN, 5);
  Vec mr = m, pr = p;
  vec::momentum_step(m, g, 0.9, p, 0.05);
  for (std::size_t i = 0; i < kN; ++i) {
    mr[i] = std::fma(0.9, mr[i], g[i]);
    pr[i] = std::fma(-0.05, mr[i], pr[i]);
  }
  EXPECT_EQ(m, mr);
  EXPECT_EQ(p, pr);
}

TEST(FusedKernelTest, DecayTowardMatchesFmaReference) {
  Vec y = test_vec(kN, 6), x = test_vec(kN, 7), ref = y;
  vec::decay_toward(y, x, 0.5);
  for (std::size_t i = 0; i < kN; ++i) ref[i] = std::fma(0.5, ref[i] - x[i], x[i]);
  EXPECT_EQ(y, ref);
}

TEST(FusedKernelTest, NagStepMatchesFmaReference) {
  Vec x = test_vec(kN, 8), y = test_vec(kN, 9);
  const Vec g = test_vec(kN, 11);
  Vec xr = x, yr = y;
  vec::nag_step(x, y, g, 0.05, 0.9);
  for (std::size_t i = 0; i < kN; ++i) {
    const Scalar y_new = std::fma(-0.05, g[i], xr[i]);
    const Scalar v = y_new - yr[i];
    yr[i] = y_new;
    xr[i] = std::fma(0.9, v, y_new);
  }
  EXPECT_EQ(x, xr);
  EXPECT_EQ(y, yr);
}

TEST(FusedKernelTest, SlowmoStepMatchesFmaReference) {
  Vec x = test_vec(kN, 12), m = test_vec(kN, 13);
  const Vec agg = test_vec(kN, 14);
  Vec xr = x, mr = m;
  vec::slowmo_step(x, agg, m, 0.8, 0.7);
  for (std::size_t i = 0; i < kN; ++i) {
    mr[i] = std::fma(0.8, mr[i], xr[i] - agg[i]);
    xr[i] = std::fma(-0.7, mr[i], xr[i]);
  }
  EXPECT_EQ(x, xr);
  EXPECT_EQ(m, mr);
}

TEST(FusedKernelTest, CosineNegMatchesNegatedCopy) {
  const Vec x = test_vec(kN, 15), y = test_vec(kN, 16);
  Vec neg = x;
  vec::scale(neg, -1.0);
  EXPECT_EQ(vec::cosine_neg(x, y), vec::cosine(neg, y));
}

// Bitwise equality that tells +0 from −0 (EXPECT_EQ on doubles does not).
bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The three-pass cosine, written out here as the one-pass kernel's reference:
// dot(x,y) / (sqrt(dot(x,x))·sqrt(dot(y,y))), 0 for a (near-)zero norm,
// clamped to [−1, 1]; `negate` gives cosine(−x, y).
Scalar three_pass_cosine(std::span<const Scalar> x, std::span<const Scalar> y,
                         bool negate) {
  const Scalar nx = std::sqrt(vec::dot(x, x));
  const Scalar ny = std::sqrt(vec::dot(y, y));
  if (nx < 1e-12 || ny < 1e-12) return 0.0;
  const Scalar c = vec::dot(x, y) / (nx * ny);
  return std::clamp(negate ? -c : c, Scalar{-1}, Scalar{1});
}

TEST(FusedKernelTest, OnePassCosineMatchesThreePassReference) {
  // Lengths around the 4-wide body, the 4096 summation tile, and a
  // multi-tile odd length; cases with zero norms, norms below the 1e-12
  // cutoff, mixed signs and magnitudes, and (anti)parallel pairs that hit
  // the clamp.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{5},
                              std::size_t{4095}, std::size_t{4096},
                              std::size_t{4097}, std::size_t{3 * 4096 + 13}}) {
    const Vec a = test_vec(n, 70 + n), b = test_vec(n, 71 + n);
    const Vec zero(n, 0.0);
    Vec tiny = a, big = b, neg = a, mixed = a;
    vec::scale(tiny, 1e-14);
    vec::scale(big, 1e6);
    vec::scale(neg, -1.0);
    for (std::size_t i = 0; i < n; i += 2) mixed[i] *= -3e3;
    const std::vector<std::pair<const Vec*, const Vec*>> pairs = {
        {&a, &b},    {&b, &a},    {&a, &zero}, {&zero, &b},  {&zero, &zero},
        {&tiny, &b}, {&a, &big},  {&a, &a},    {&a, &neg},   {&mixed, &b},
        {&mixed, &neg}};
    std::vector<const Scalar*> xs, ys;
    for (const auto& [x, y] : pairs) {
      SCOPED_TRACE("n " + std::to_string(n) + " pair " +
                   std::to_string(xs.size()));
      EXPECT_TRUE(
          same_bits(vec::cosine(*x, *y), three_pass_cosine(*x, *y, false)));
      EXPECT_TRUE(same_bits(vec::cosine_neg(*x, *y),
                            three_pass_cosine(*x, *y, true)));
      xs.push_back(x->data());
      ys.push_back(y->data());
    }
    // The batched kernel (two pairs per pass, odd count leaves a single)
    // gives every pair the single call's bits.
    for (const bool negate : {false, true}) {
      Vec out(pairs.size());
      vec::cosines(xs, ys, n, negate, out);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        SCOPED_TRACE("batched n " + std::to_string(n) + " pair " +
                     std::to_string(k));
        EXPECT_TRUE(same_bits(
            out[k], three_pass_cosine(*pairs[k].first, *pairs[k].second,
                                      negate)));
      }
    }
  }
}

TEST(FusedKernelTest, WeightedSumTilesMatchOneCall) {
  // Any tile width over [0, n) — including ones that straddle the internal
  // 4096-element tile — and any input count (through the 4-way groups and
  // their tail) give weighted_sum's bits.
  constexpr std::size_t n = 2 * 4096 + 77;
  std::vector<Vec> inputs;
  for (std::size_t v = 0; v < 6; ++v) inputs.push_back(test_vec(n, 80 + v));
  const Vec weights = test_vec(6, 90);
  for (std::size_t count = 1; count <= inputs.size(); ++count) {
    std::vector<const Vec*> vecs;
    std::vector<const Scalar*> rows;
    for (std::size_t v = 0; v < count; ++v) {
      vecs.push_back(&inputs[v]);
      rows.push_back(inputs[v].data());
    }
    const std::span<const Scalar> w(weights.data(), count);
    Vec whole;
    vec::weighted_sum(vecs, w, whole);
    for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                    std::size_t{1000}, std::size_t{5000}}) {
      SCOPED_TRACE("count " + std::to_string(count) + " width " +
                   std::to_string(width));
      Vec tiled(n, -1.0);
      for (std::size_t lo = 0; lo < n; lo += width) {
        const std::size_t len = std::min(width, n - lo);
        vec::weighted_sum_tile(rows, w, lo,
                               std::span(tiled).subspan(lo, len));
      }
      EXPECT_EQ(std::memcmp(tiled.data(), whole.data(), n * sizeof(Scalar)),
                0);
    }
  }
}

TEST(FusedKernelTest, SubrangeCallsAreBitIdentical) {
  // One representative per kernel shape: the split shifts every element's
  // body/tail assignment, so agreement means the SIMD body and std::fma tail
  // compute identical bits.
  const Vec x0 = test_vec(kN, 20), g0 = test_vec(kN, 21), u0 = test_vec(kN, 22);
  {
    Vec a = x0, b = x0;
    vec::axpby(0.3, g0, 0.7, a);
    vec::axpby(0.3, std::span(g0).subspan(0, kSplit), 0.7,
               std::span(b).subspan(0, kSplit));
    vec::axpby(0.3, std::span(g0).subspan(kSplit), 0.7,
               std::span(b).subspan(kSplit));
    EXPECT_EQ(a, b);
  }
  {
    Vec a = x0, b = x0;
    vec::scale_add_scale(a, 0.4, g0, 0.6);
    vec::scale_add_scale(std::span(b).subspan(0, kSplit), 0.4,
                         std::span(g0).subspan(0, kSplit), 0.6);
    vec::scale_add_scale(std::span(b).subspan(kSplit), 0.4,
                         std::span(g0).subspan(kSplit), 0.6);
    EXPECT_EQ(a, b);
  }
  {
    Vec ya = x0, yb = x0;
    vec::decay_toward(ya, g0, 0.25);
    vec::decay_toward(std::span(yb).subspan(0, kSplit),
                      std::span(g0).subspan(0, kSplit), 0.25);
    vec::decay_toward(std::span(yb).subspan(kSplit),
                      std::span(g0).subspan(kSplit), 0.25);
    EXPECT_EQ(ya, yb);
  }
  {
    Vec xa = x0, xb = x0;
    vec::descent_drift(xa, g0, u0, 0.05, 0.9);
    vec::descent_drift(std::span(xb).subspan(0, kSplit),
                       std::span(g0).subspan(0, kSplit),
                       std::span(u0).subspan(0, kSplit), 0.05, 0.9);
    vec::descent_drift(std::span(xb).subspan(kSplit),
                       std::span(g0).subspan(kSplit),
                       std::span(u0).subspan(kSplit), 0.05, 0.9);
    EXPECT_EQ(xa, xb);
  }
  {
    Vec xa = x0, xb = x0, pa = u0, pb = u0;
    Vec ma = g0, mb = g0;
    vec::momentum_step(ma, x0, 0.9, pa, 0.05);
    vec::momentum_step(std::span(mb).subspan(0, kSplit),
                       std::span(x0).subspan(0, kSplit), 0.9,
                       std::span(pb).subspan(0, kSplit), 0.05);
    vec::momentum_step(std::span(mb).subspan(kSplit),
                       std::span(x0).subspan(kSplit), 0.9,
                       std::span(pb).subspan(kSplit), 0.05);
    EXPECT_EQ(ma, mb);
    EXPECT_EQ(pa, pb);
  }
}

// ---------------------------------------------------------------------------
// Shared engine fixture (mirrors tests/pop_parity_test.cpp at smaller scale).
// ---------------------------------------------------------------------------

struct Fixture {
  data::TrainTest dataset;
  Topology topo{Topology::uniform(4, 16)};  // 64 workers
  data::Partition partition;
  nn::ModelFactory factory;
  RunConfig cfg;

  Fixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 3, 3};
    spec.num_classes = 3;
    spec.train_size = 256;
    spec.test_size = 32;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 3, 3}, 3);

    cfg.total_iterations = 12;
    cfg.tau = 2;
    cfg.pi = 2;
    cfg.batch_size = 2;
    cfg.seed = 5;
  }
};

sim::FaultConfig fault_zoo() {
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.25;
  fc.churn.p_fail = 0.15;
  fc.churn.p_recover = 0.6;
  fc.edge_outage.prob = 0.1;
  return fc;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy);
  }
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.worker_miss_counts, b.worker_miss_counts);
  EXPECT_EQ(a.mean_participation_rate, b.mean_participation_rate);
}

// ---------------------------------------------------------------------------
// Cohort roster vs a naive population sweep.
// ---------------------------------------------------------------------------

// The renormalization written out over the whole population, one worker at
// a time in id order: what Participation must reproduce bit for bit while
// touching only the cohort.
struct NaiveRoster {
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> edge_active;
  std::vector<std::vector<WorkerId>> active_of_edge;
  std::vector<Scalar> weight_in_edge, weight_global, edge_weight;
  std::size_t num_active = 0;
};

NaiveRoster naive_roster(const Topology& topo,
                         const std::vector<Scalar>& base,
                         const std::vector<std::uint8_t>& worker_up,
                         const std::vector<std::uint8_t>& edge_up,
                         const std::vector<Scalar>& scale) {
  const std::size_t n = topo.num_workers();
  const std::size_t l = topo.num_edges();
  NaiveRoster r;
  r.active.assign(n, 0);
  r.edge_active.assign(l, 0);
  r.active_of_edge.resize(l);
  r.weight_in_edge.assign(n, 0.0);
  r.weight_global.assign(n, 0.0);
  r.edge_weight.assign(l, 0.0);
  std::vector<Scalar> mass(n), edge_mass(l, 0.0);
  for (std::size_t w = 0; w < n; ++w) {
    mass[w] = base[w] * scale[w];
    r.active[w] = worker_up[w] && edge_up[topo.edge_of_worker(w)] ? 1 : 0;
    r.num_active += r.active[w];
  }
  Scalar global_mass = 0;
  for (std::size_t e = 0; e < l; ++e) {
    for (const WorkerId w : topo.workers_of_edge(e)) {
      if (!r.active[w]) continue;
      r.active_of_edge[e].push_back(w);
      edge_mass[e] += mass[w];
    }
    r.edge_active[e] = edge_up[e] && !r.active_of_edge[e].empty() ? 1 : 0;
    for (const WorkerId w : r.active_of_edge[e]) {
      r.weight_in_edge[w] = mass[w] / edge_mass[e];
    }
    if (r.edge_active[e]) global_mass += edge_mass[e];
  }
  Scalar active_mass = 0;
  for (std::size_t w = 0; w < n; ++w) {
    if (r.active[w]) active_mass += mass[w];
  }
  for (std::size_t w = 0; w < n; ++w) {
    if (r.active[w]) r.weight_global[w] = mass[w] / active_mass;
  }
  for (std::size_t e = 0; e < l; ++e) {
    if (r.edge_active[e]) r.edge_weight[e] = edge_mass[e] / global_mass;
  }
  return r;
}

void expect_matches(const Participation& p, const NaiveRoster& r,
                    const Topology& topo) {
  EXPECT_EQ(p.num_active(), r.num_active);
  for (std::size_t w = 0; w < topo.num_workers(); ++w) {
    // Absent workers sit at the all-absent baseline: zero weights.
    EXPECT_EQ(p.worker_active(w), r.active[w] != 0) << "worker " << w;
    EXPECT_EQ(p.weight_in_edge(w), r.weight_in_edge[w]) << "worker " << w;
    EXPECT_EQ(p.weight_global(w), r.weight_global[w]) << "worker " << w;
  }
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    EXPECT_EQ(p.edge_active(e), r.edge_active[e] != 0) << "edge " << e;
    EXPECT_EQ(p.edge_weight_global(e), r.edge_weight[e]) << "edge " << e;
    EXPECT_EQ(p.active_workers_of_edge(e), r.active_of_edge[e])
        << "edge " << e;
  }
}

TEST(SparseRosterTest, MatchesNaiveReferenceBitwise) {
  const Topology topo = Topology::uniform(4, 16);
  const std::size_t N = topo.num_workers();
  std::vector<Scalar> weights(N);
  Rng rng(77);
  for (Scalar& w : weights) w = 1.0 + 10.0 * rng.uniform();

  Participation part(
      topo, [&weights](std::size_t w) { return weights[w]; },
      /*edge_faults=*/true);

  std::vector<WorkerId> cohort;
  std::vector<std::uint8_t> cohort_up, worker_up(N), edge_up(topo.num_edges());
  std::vector<Scalar> cohort_scale, scale(N);
  for (std::size_t round = 0; round < 12; ++round) {
    // Random ascending cohort (~1/4 of the population), random up bits,
    // random with-replacement-style multiplicities, random edge outages.
    cohort.clear();
    cohort_up.clear();
    cohort_scale.clear();
    std::fill(worker_up.begin(), worker_up.end(), 0);
    std::fill(scale.begin(), scale.end(), 1.0);
    for (std::size_t w = 0; w < N; ++w) {
      if (rng.uniform() > 0.25) continue;
      const bool up = rng.uniform() < 0.8;
      const Scalar mult = 1.0 + static_cast<Scalar>(rng.next_u64() % 3);
      cohort.push_back(w);
      cohort_up.push_back(up ? 1 : 0);
      cohort_scale.push_back(mult);
      worker_up[w] = up ? 1 : 0;
      scale[w] = mult;
    }
    if (cohort.empty()) {
      cohort.push_back(0);
      cohort_up.push_back(1);
      cohort_scale.push_back(1.0);
      worker_up[0] = 1;
    }
    for (std::size_t e = 0; e < edge_up.size(); ++e) {
      edge_up[e] = rng.uniform() < 0.85 ? 1 : 0;
    }

    SCOPED_TRACE("round " + std::to_string(round));
    part.set_cohort_roster(cohort, cohort_up, edge_up, &cohort_scale);
    expect_matches(part, naive_roster(topo, weights, worker_up, edge_up, scale),
                   topo);

    // An edge-only roster mid-sequence must leave the all-absent worker
    // baseline the next cohort roster builds on.
    if (round == 5) {
      part.set_edge_roster(edge_up);
      EXPECT_EQ(part.num_active(), 0u);
      Scalar up_mass = 0;
      std::vector<Scalar> edge_mass(topo.num_edges(), 0.0);
      for (std::size_t e = 0; e < topo.num_edges(); ++e) {
        for (const WorkerId w : topo.workers_of_edge(e)) {
          edge_mass[e] += weights[w];
        }
        if (edge_up[e]) up_mass += edge_mass[e];
      }
      for (std::size_t w = 0; w < N; ++w) {
        EXPECT_FALSE(part.worker_active(w));
        EXPECT_EQ(part.weight_in_edge(w), 0.0);
        EXPECT_EQ(part.weight_global(w), 0.0);
      }
      for (std::size_t e = 0; e < topo.num_edges(); ++e) {
        EXPECT_EQ(part.edge_active(e), edge_up[e] != 0);
        EXPECT_EQ(part.edge_weight_global(e),
                  edge_up[e] ? edge_mass[e] / up_mass : 0.0);
      }
    }
  }
}

// Off-roster (and down) workers: inactive, both weights exactly 0.
void expect_absent(const Participation& p, WorkerId w) {
  EXPECT_FALSE(p.worker_active(w)) << "worker " << w;
  EXPECT_EQ(p.weight_in_edge(w), 0.0) << "worker " << w;
  EXPECT_EQ(p.weight_global(w), 0.0) << "worker " << w;
}

TEST(RosterLayoutTest, SuccessiveRostersMatchHandRenormalization) {
  // Edge 0 serves workers {0, 1, 2}, edge 1 {3, 4, 5}; D_i = i + 1. Every
  // mass below is a small integer, so each sum is exact and the expected
  // weights are the written quotients, bit for bit.
  const Topology topo = Topology::uniform(2, 3);
  const std::vector<Scalar> mass = {1, 2, 3, 4, 5, 6};
  Participation part(
      topo, [&mass](std::size_t w) { return mass[w]; }, /*edge_faults=*/true);
  for (WorkerId w = 0; w < 6; ++w) expect_absent(part, w);

  // Roster A = {0, 2, 4}, everyone up.
  part.set_cohort_roster({0, 2, 4}, {1, 1, 1}, {1, 1});
  EXPECT_EQ(part.num_active(), 3u);
  EXPECT_EQ(part.weight_in_edge(0), 1.0 / 4.0);
  EXPECT_EQ(part.weight_in_edge(2), 3.0 / 4.0);
  EXPECT_EQ(part.weight_in_edge(4), 5.0 / 5.0);
  EXPECT_EQ(part.weight_global(0), 1.0 / 9.0);
  EXPECT_EQ(part.weight_global(2), 3.0 / 9.0);
  EXPECT_EQ(part.weight_global(4), 5.0 / 9.0);
  EXPECT_EQ(part.edge_weight_global(0), 4.0 / 9.0);
  EXPECT_EQ(part.edge_weight_global(1), 5.0 / 9.0);
  EXPECT_EQ(part.active_workers_of_edge(0), (std::vector<WorkerId>{0, 2}));
  EXPECT_EQ(part.active_workers_of_edge(1), (std::vector<WorkerId>{4}));
  for (const WorkerId w : {1u, 3u, 5u}) expect_absent(part, w);

  // Roster B = {2, 3, 4} overlaps A in 2 and 4; worker 3 is down, and the
  // scales make the effective masses 3·2, 4·1 and 5·3.
  const std::vector<Scalar> scale = {2.0, 1.0, 3.0};
  part.set_cohort_roster({2, 3, 4}, {1, 0, 1}, {1, 1}, &scale);
  EXPECT_EQ(part.num_active(), 2u);
  EXPECT_EQ(part.weight_in_edge(2), 6.0 / 6.0);
  EXPECT_EQ(part.weight_in_edge(4), 15.0 / 15.0);
  EXPECT_EQ(part.weight_global(2), 6.0 / 21.0);
  EXPECT_EQ(part.weight_global(4), 15.0 / 21.0);
  EXPECT_EQ(part.edge_weight_global(0), 6.0 / 21.0);
  EXPECT_EQ(part.edge_weight_global(1), 15.0 / 21.0);
  for (const WorkerId w : {0u, 1u, 3u, 5u}) expect_absent(part, w);

  // Roster C = {0, 1, 5} is disjoint from B, and edge 1 is down: worker 5
  // is on the roster but inactive, and the edge gets no weight.
  part.set_cohort_roster({0, 1, 5}, {1, 1, 1}, {1, 0});
  EXPECT_EQ(part.num_active(), 2u);
  EXPECT_EQ(part.weight_in_edge(0), 1.0 / 3.0);
  EXPECT_EQ(part.weight_in_edge(1), 2.0 / 3.0);
  EXPECT_EQ(part.weight_global(0), 1.0 / 3.0);
  EXPECT_EQ(part.weight_global(1), 2.0 / 3.0);
  EXPECT_TRUE(part.edge_active(0));
  EXPECT_FALSE(part.edge_active(1));
  EXPECT_EQ(part.edge_weight_global(0), 3.0 / 3.0);
  EXPECT_EQ(part.edge_weight_global(1), 0.0);
  EXPECT_TRUE(part.active_workers_of_edge(1).empty());
  for (const WorkerId w : {2u, 3u, 4u, 5u}) expect_absent(part, w);

  // An edge-only roster weighs the edges by their static masses 6 and 15.
  part.set_edge_roster({1, 1});
  EXPECT_EQ(part.num_active(), 0u);
  EXPECT_EQ(part.edge_weight_global(0), 6.0 / 21.0);
  EXPECT_EQ(part.edge_weight_global(1), 15.0 / 21.0);
  for (WorkerId w = 0; w < 6; ++w) expect_absent(part, w);
}

TEST(RosterLayoutTest, BytesAreThePositionTablePlusTheRoster) {
  const Topology topo = Topology::uniform(1000, 1000);
  const std::size_t n = topo.num_workers();
  const std::size_t edges = topo.num_edges();
  Participation part(
      topo, [](std::size_t w) { return 1.0 + static_cast<Scalar>(w % 7); },
      /*edge_faults=*/true);
  const std::vector<std::uint8_t> edge_up(edges, 1);
  // Two 512-id rosters spread over the population, the second shifted so
  // the two are disjoint.
  for (const WorkerId shift : {0u, 1u}) {
    std::vector<WorkerId> roster;
    for (WorkerId i = 0; i < 512; ++i) roster.push_back(i * 1953 + shift);
    part.set_cohort_roster(roster, std::vector<std::uint8_t>(512, 1),
                           edge_up);
    ASSERT_EQ(part.num_active(), 512u);
    for (const WorkerId w : roster) {
      EXPECT_TRUE(part.worker_active(w));
      // The other roster's id: not yet drawn, then left behind.
      expect_absent(part, shift == 0 ? w + 1 : w - 1);
    }
    // The u32 position table is the only population-sized array; the rest
    // is O(roster) (id, up bit, mass, two weights) plus O(edges) (static
    // mass, flag, weight, surviving-worker list).
    EXPECT_GE(part.bytes(), 4 * n);
    EXPECT_LE(part.bytes(), 4 * n + 64 * roster.size() + 64 * edges);
  }
}

// ---------------------------------------------------------------------------
// Incremental miss accounting vs the plan's answers.
// ---------------------------------------------------------------------------

TEST(MissAccountingTest, MatchesPlanQueries) {
  Fixture f;
  const sim::FaultPlan plan(f.topo, f.cfg, fault_zoo());

  auto alg = algs::make_algorithm("HierAdMo");
  RunConfig cfg = f.cfg;
  cfg.num_threads = 2;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  const RunResult r = engine.run_with_oracle(*alg, &plan);

  // A three-tier worker misses interval k when it is down or its edge is.
  std::vector<std::size_t> expected(f.topo.num_workers(), 0);
  const std::size_t intervals = f.cfg.total_iterations / f.cfg.tau;
  for (std::size_t k = 1; k <= intervals; ++k) {
    for (std::size_t w = 0; w < expected.size(); ++w) {
      if (!plan.worker_available(k, w) ||
          !plan.edge_available(k, f.topo.edge_of_worker(w))) {
        ++expected[w];
      }
    }
  }
  EXPECT_EQ(r.worker_miss_counts, expected);
}

// ---------------------------------------------------------------------------
// Sampled-population absent-policy replay and turnover thread invariance.
// ---------------------------------------------------------------------------

RunResult run_sampled(const Fixture& f, const std::string& alg_name,
                      std::size_t threads, std::size_t cohort_size,
                      const AvailabilityOracle* oracle) {
  auto alg = algs::make_algorithm(alg_name);
  RunConfig cfg = f.cfg;
  cfg.num_threads = threads;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::VirtConfig virt;
  virt.cohort_size = cohort_size;
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg, virt);
  engine.set_cohort_provider(&store);
  return engine.run_with_oracle(*alg, oracle);
}

// The availability a sampled run induces on a full-cohort run, as a table
// oracle: a worker is up iff it is in interval k's cohort AND `oracle`
// keeps it up; edges follow `oracle`.
class InducedOracle final : public AvailabilityOracle {
 public:
  InducedOracle(const Fixture& f, std::size_t cohort_size,
                const AvailabilityOracle& oracle)
      : workers_(f.topo.num_workers()),
        edges_(f.topo.num_edges()),
        policy_(oracle.absent_policy()),
        decay_(oracle.absent_decay()) {
    pop::VirtConfig virt;
    virt.cohort_size = cohort_size;
    pop::CohortStore replica(f.factory, f.dataset, f.partition, f.topo,
                             f.cfg, virt);
    const std::size_t intervals = f.cfg.total_iterations / f.cfg.tau;
    worker_up_.assign(intervals * workers_, 0);
    std::vector<WorkerId> ids;
    std::vector<Scalar> mult;
    for (std::size_t k = 1; k <= intervals; ++k) {
      replica.sample_cohort(k, ids, mult);
      for (const WorkerId id : ids) {
        worker_up_[(k - 1) * workers_ + id] =
            oracle.worker_available(k, id) ? 1 : 0;
      }
      for (std::size_t e = 0; e < edges_; ++e) {
        edge_up_.push_back(oracle.edge_available(k, e) ? 1 : 0);
      }
    }
  }

  bool worker_available(std::size_t k, std::size_t w) const override {
    return worker_up_[(k - 1) * workers_ + w] != 0;
  }
  bool edge_available(std::size_t k, std::size_t e) const override {
    return edge_up_[(k - 1) * edges_ + e] != 0;
  }
  AbsentPolicy absent_policy() const override { return policy_; }
  Scalar absent_decay() const override { return decay_; }

 private:
  std::size_t workers_, edges_;
  std::vector<std::uint8_t> worker_up_, edge_up_;  // [k-1][id]
  AbsentPolicy policy_;
  Scalar decay_;
};

sim::FaultPlan zoo_plan(const Fixture& f, AbsentPolicy policy) {
  sim::FaultConfig fc = fault_zoo();
  fc.absent_policy = policy;
  fc.absent_decay = 0.5;
  return sim::FaultPlan(f.topo, f.cfg, fc);
}

class AbsentReplayTest : public ::testing::TestWithParam<AbsentPolicy> {};

TEST_P(AbsentReplayTest, SampledRunMatchesDenseInducedSchedule) {
  Fixture f;
  constexpr std::size_t kCohort = 16;  // of 64: turnover every interval

  // Fault zoo on top of the cohort sampling, with the policy under test.
  const sim::FaultPlan plan = zoo_plan(f, GetParam());

  const RunResult sampled = run_sampled(f, "HierAdMo", 4, kCohort, &plan);

  const InducedOracle induced(f, kCohort, plan);
  auto dense_alg = algs::make_algorithm("HierAdMo");
  RunConfig cfg = f.cfg;
  cfg.num_threads = 4;
  Engine dense(f.factory, f.dataset, f.partition, f.topo, cfg);
  const RunResult reference = dense.run_with_oracle(*dense_alg, &induced);

  expect_identical(reference, sampled);
}

TEST_P(AbsentReplayTest, TurnoverIsThreadCountInvariant) {
  Fixture f;
  const sim::FaultPlan plan = zoo_plan(f, GetParam());

  // Spill serialization and restore replay run on the engine pool; 1 vs 4
  // threads must not move a bit.
  const RunResult serial = run_sampled(f, "HierAdMo", 1, 16, &plan);
  const RunResult parallel = run_sampled(f, "HierAdMo", 4, 16, &plan);
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Policies, AbsentReplayTest,
                         ::testing::Values(AbsentPolicy::kHold,
                                           AbsentPolicy::kReset,
                                           AbsentPolicy::kDecay),
                         [](const ::testing::TestParamInfo<AbsentPolicy>& i) {
                           switch (i.param) {
                             case AbsentPolicy::kHold: return "Hold";
                             case AbsentPolicy::kReset: return "Reset";
                             case AbsentPolicy::kDecay: return "Decay";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace hfl::fl

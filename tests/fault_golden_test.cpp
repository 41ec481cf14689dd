// Golden digests of the fault paths.
//
//   1. Fault traces: sim::FaultPlan over the six-model fault zoo hashes to a
//      committed value (availability, slowdown, edge outages and upload
//      attempts), and sim::SparseFaultPlan's lazy answers hash to the
//      committed availability digest. Both plans are pinned to the recorded
//      trace, not to each other.
//   2. fl::Engine fault-path runs: every registry algorithm under the hold,
//      reset and decay absent policies on three settings — the engine's own
//      full-cohort store with a FaultPlan schedule, an attached full-cohort
//      pop::CohortStore driven through a ScheduleOracle, and a sampled
//      CohortStore driven by a SparseFaultPlan — hashes curve, final
//      parameters, miss counts, participation trace and per-link comm
//      totals. The first two run the same store configuration, so they
//      share their digests.
//   3. HierAdMo's configurations outside the registry — the kVelocity and
//      kCrossWorker ablation signals and a top-k upload compressor — on
//      the same nine settings as 2.
//   4. A MiniResNet engine run: HierAdMo on 2×2 workers with 8×8 images,
//      unbatched and batched, hashes curve and final parameters. It pins
//      the Residual architecture's gradients and evaluations to their
//      recorded bits, whichever execution path computes them.
//
// Digests are authoritative on the portable build (no FMA). With FMA the
// compiler's a·b+c contraction moves bits between optimization levels (the
// straggler jitter draw included), so the -march=native tables hold only at
// the default Release flags (HFL_GOLDEN_NATIVE_FLAGS, set by
// tests/CMakeLists.txt) on an AVX-512 host, the ISA they were recorded
// with; other FMA builds skip. A failing check prints the measured rows.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/core/hieradmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/compression.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"
#include "src/sim/sparse_fault_plan.h"
#include "tests/golden.h"

namespace hfl {
namespace {

// ---------------------------------------------------------------------------
// Fault traces
// ---------------------------------------------------------------------------

constexpr std::size_t kTraceEdges = 4;
constexpr std::size_t kTraceWorkersPerEdge = 16;
constexpr std::size_t kTraceIntervals = 12;

// {full FaultPlan trace, availability bits only}.
using TraceDigests = std::array<std::uint64_t, 2>;

std::uint64_t availability_digest(const std::vector<std::uint8_t>& worker_up,
                                  const std::vector<std::uint8_t>& edge_up) {
  golden::Fnv h;
  h.add(worker_up);
  h.add(edge_up);
  return h.value();
}

TraceDigests plan_digests(const sim::FaultPlan& plan, std::size_t workers) {
  const fl::ParticipationSchedule& s = plan.schedule();
  std::vector<std::size_t> attempts;
  for (std::size_t k = 1; k <= plan.num_intervals(); ++k) {
    for (std::size_t w = 0; w < workers; ++w) {
      attempts.push_back(plan.upload_attempts(k, w));
    }
  }
  golden::Fnv h;
  h.add(s.worker_up);
  h.add(s.slowdown);
  h.add(s.edge_up);
  h.add(attempts);
  return {h.value(), availability_digest(s.worker_up, s.edge_up)};
}

// The lazy plan's answers laid out like the dense schedule ([k-1][entity]),
// queried edge-major to exercise the per-entity cursors out of row order.
std::uint64_t sparse_availability_digest(const sim::SparseFaultPlan& plan,
                                         std::size_t workers,
                                         std::size_t edges) {
  std::vector<std::uint8_t> worker_up(kTraceIntervals * workers);
  std::vector<std::uint8_t> edge_up(kTraceIntervals * edges);
  for (std::size_t w = workers; w-- > 0;) {
    for (std::size_t k = 1; k <= kTraceIntervals; ++k) {
      worker_up[(k - 1) * workers + w] = plan.worker_available(k, w) ? 1 : 0;
    }
  }
  for (std::size_t e = 0; e < edges; ++e) {
    for (std::size_t k = 1; k <= kTraceIntervals; ++k) {
      edge_up[(k - 1) * edges + e] = plan.edge_available(k, e) ? 1 : 0;
    }
  }
  return availability_digest(worker_up, edge_up);
}

const std::map<std::string, TraceDigests>* golden_traces() {
#if !defined(__FMA__)
  static const std::map<std::string, TraceDigests> table{
      {"zoo0",
       {0xa88a905cb42ab562ULL, 0xff640d8a436703c2ULL}},
      {"zoo1",
       {0x430c2505a60c932eULL, 0xb0ded8de83713e2eULL}},
      {"zoo2",
       {0x01554e8f4a41a12cULL, 0x5d2c029ddc5389c2ULL}},
      {"zoo3",
       {0xdd8939f824cd2c15ULL, 0xf207c4b7529938b5ULL}},
      {"zoo4",
       {0x3cf4ffefaccc3867ULL, 0xf2f70e50b7e18057ULL}},
      {"zoo5",
       {0x2725d79ee5678982ULL, 0xf5d7d6910fbf0ed7ULL}},
  };
  return &table;
#elif defined(HFL_GOLDEN_NATIVE_FLAGS) && defined(__AVX512F__)
  static const std::map<std::string, TraceDigests> table{
      {"zoo0",
       {0xa88a905cb42ab562ULL, 0xff640d8a436703c2ULL}},
      {"zoo1",
       {0x430c2505a60c932eULL, 0xb0ded8de83713e2eULL}},
      {"zoo2",
       {0x01554e8f4a41a12cULL, 0x5d2c029ddc5389c2ULL}},
      {"zoo3",
       {0xdd8939f824cd2c15ULL, 0xf207c4b7529938b5ULL}},
      {"zoo4",
       {0x3cf4ffefaccc3867ULL, 0xf2f70e50b7e18057ULL}},
      {"zoo5",
       {0x3cd231f82ded6795ULL, 0xf5d7d6910fbf0ed7ULL}},
  };
  return &table;
#else
  return nullptr;
#endif
}

TEST(FaultTraceGoldenTest, PlansMatchGoldenDigests) {
  const std::map<std::string, TraceDigests>* golden = golden_traces();
  if (golden == nullptr) {
    GTEST_SKIP() << "FMA build without the default Release flags: digests "
                    "are pinned on the portable build";
  }
  const fl::Topology topo =
      fl::Topology::uniform(kTraceEdges, kTraceWorkersPerEdge);
  fl::RunConfig cfg;
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.total_iterations = cfg.tau * kTraceIntervals;
  std::string measured;
  for (int which = 0; which < 6; ++which) {
    const std::string name = "zoo" + std::to_string(which);
    const sim::FaultConfig fc = golden::fault_zoo(which);
    const sim::FaultPlan dense(topo, cfg, fc);
    const sim::SparseFaultPlan sparse(topo.num_workers(), topo.num_edges(),
                                      fc);
    const TraceDigests got = plan_digests(dense, topo.num_workers());
    measured += golden::format_row(name, got) + "\n";
    const auto it = golden->find(name);
    if (it == golden->end()) {
      ADD_FAILURE() << "no golden row for " << name;
      continue;
    }
    EXPECT_EQ(it->second, got) << name;
    EXPECT_EQ(it->second[1],
              sparse_availability_digest(sparse, topo.num_workers(),
                                         topo.num_edges()))
        << name << ": SparseFaultPlan diverged from the recorded trace";
  }
  if (HasFailure()) ADD_FAILURE() << "measured:\n" << measured;
}

// ---------------------------------------------------------------------------
// fl::Engine fault-path runs
// ---------------------------------------------------------------------------

struct Fixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(4, 16)};  // 64 workers
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg3;  // three-tier
  fl::RunConfig cfg2;  // two-tier (π = 1, matched period)

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

    cfg3.total_iterations = 8;
    cfg3.tau = 2;
    cfg3.pi = 2;
    cfg3.batch_size = 2;
    cfg3.seed = 5;
    cfg2 = cfg3;
    cfg2.tau = 4;
    cfg2.pi = 1;
  }

  fl::RunConfig config_for(const fl::Algorithm& alg) const {
    return alg.three_tier() ? cfg3 : cfg2;
  }
};

// Every fault model at once, so each draw of the per-interval trace shapes
// the run.
sim::FaultConfig run_faults(fl::AbsentPolicy policy) {
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.15;
  fc.churn.p_fail = 0.1;
  fc.churn.p_recover = 0.7;
  fc.straggler.fraction = 0.3;
  fc.straggler.slowdown = 2.0;
  fc.straggler.jitter = 0.4;
  fc.straggler.deadline_slowdown = 2.2;
  fc.link.loss_prob = 0.25;
  fc.link.max_retries = 2;
  fc.edge_outage.prob = 0.1;
  fc.absent_policy = policy;
  fc.absent_decay = 0.5;
  return fc;
}

enum class EngineKind { kOwnStore, kFullCohort, kSampled };
constexpr std::size_t kSampledCohort = 24;  // of 64

std::uint64_t run_digest(const fl::RunResult& r) {
  golden::Fnv h;
  for (const fl::MetricPoint& p : r.curve) {
    h.add(p.iteration);
    h.add(p.test_loss);
    h.add(p.test_accuracy);
  }
  h.add(r.final_params);
  h.add(r.worker_miss_counts);
  for (const fl::ParticipationPoint& p : r.participation) {
    h.add(p.interval);
    h.add(p.active_workers);
    h.add(p.total_workers);
    h.add(p.active_edges);
    h.add(p.total_edges);
    h.add(p.rate);
  }
  h.add(r.mean_participation_rate);
  for (std::size_t l = 0; l < 6; ++l) {
    const obs::LinkTotals t =
        obs::CommAccountant::global().totals(static_cast<obs::Link>(l));
    h.add(t.messages);
    h.add(t.logical_bytes);
    h.add(t.saved_bytes);
  }
  return h.value();
}

std::uint64_t fault_run_digest(const Fixture& f, fl::Algorithm& alg,
                               EngineKind kind, fl::AbsentPolicy policy) {
  fl::RunConfig cfg = f.config_for(alg);
  cfg.num_threads = 1;
  const sim::FaultConfig fc = run_faults(policy);
  const sim::FaultPlan plan(f.topo, cfg, fc);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::CommAccountant::global().reset();
  std::unique_ptr<pop::CohortStore> store;
  if (kind == EngineKind::kSampled) {
    cfg.mime_cohort_stats = alg.probes_population();
  }
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  if (kind != EngineKind::kOwnStore) {
    pop::VirtConfig virt;
    virt.cohort_size = kind == EngineKind::kSampled ? kSampledCohort : 0;
    store = std::make_unique<pop::CohortStore>(f.factory, f.dataset,
                                               f.partition, f.topo, cfg, virt);
    engine.set_cohort_provider(store.get());
  }
  fl::RunResult r;
  if (kind == EngineKind::kOwnStore) {
    r = engine.run(alg, &plan.schedule());
  } else if (kind == EngineKind::kFullCohort) {
    const fl::ScheduleOracle oracle(plan.schedule());
    r = engine.run_with_oracle(alg, &oracle);
  } else {
    const sim::SparseFaultPlan sparse(f.topo.num_workers(),
                                      f.topo.num_edges(), fc);
    r = engine.run_with_oracle(alg, &sparse);
  }
  const std::uint64_t digest = run_digest(r);
  obs::set_enabled(false);
  return digest;
}

// {own store, attached full cohort, sampled} × {kHold, kReset, kDecay}.
using RunDigests = std::array<std::uint64_t, 9>;

const std::map<std::string, RunDigests>* golden_runs() {
#if !defined(__FMA__)
  static const std::map<std::string, RunDigests> table{
      {"HierAdMo",
       {0x37ffbec8a42aa4a7ULL, 0xb1bbadca161426e2ULL, 0x4e8d1eea93d22481ULL,
        0x37ffbec8a42aa4a7ULL, 0xb1bbadca161426e2ULL, 0x4e8d1eea93d22481ULL,
        0x9048e36732f65eeeULL, 0x2c0b369ffa4d7d3dULL, 0x639eafbdff9a007aULL}},
      {"HierAdMo-R",
       {0x65f268e8638b7909ULL, 0x5979d651d7dbade0ULL, 0x42f0b544eb14e8b1ULL,
        0x65f268e8638b7909ULL, 0x5979d651d7dbade0ULL, 0x42f0b544eb14e8b1ULL,
        0x50c26d27c8cd4f3dULL, 0x9df700e4e8db7e12ULL, 0x4dfa40ab98ef1fbcULL}},
      {"HierFAVG",
       {0x2f6ad5acb5d324beULL, 0x2f6ad5acb5d324beULL, 0x2f6ad5acb5d324beULL,
        0x2f6ad5acb5d324beULL, 0x2f6ad5acb5d324beULL, 0x2f6ad5acb5d324beULL,
        0x69cb8bbb84fcc8fbULL, 0x69cb8bbb84fcc8fbULL, 0x69cb8bbb84fcc8fbULL}},
      {"CFL",
       {0x5b3fb157ab738af0ULL, 0x5b3fb157ab738af0ULL, 0x5b3fb157ab738af0ULL,
        0x5b3fb157ab738af0ULL, 0x5b3fb157ab738af0ULL, 0x5b3fb157ab738af0ULL,
        0xc2d2a671ae96c7bbULL, 0xc2d2a671ae96c7bbULL, 0xc2d2a671ae96c7bbULL}},
      {"FastSlowMo",
       {0x31360f2836975929ULL, 0x31360f2836975929ULL, 0x31360f2836975929ULL,
        0x31360f2836975929ULL, 0x31360f2836975929ULL, 0x31360f2836975929ULL,
        0xa6ab2183aee434b9ULL, 0xa6ab2183aee434b9ULL, 0xa6ab2183aee434b9ULL}},
      {"FedADC",
       {0xe56a5512e174f693ULL, 0xe56a5512e174f693ULL, 0xe56a5512e174f693ULL,
        0xe56a5512e174f693ULL, 0xe56a5512e174f693ULL, 0xe56a5512e174f693ULL,
        0x7413a40781295c82ULL, 0x7413a40781295c82ULL, 0x7413a40781295c82ULL}},
      {"FedMom",
       {0xeaa2f01e387d1623ULL, 0xeaa2f01e387d1623ULL, 0xeaa2f01e387d1623ULL,
        0xeaa2f01e387d1623ULL, 0xeaa2f01e387d1623ULL, 0xeaa2f01e387d1623ULL,
        0xebbe6a07b6a8c5b5ULL, 0xebbe6a07b6a8c5b5ULL, 0xebbe6a07b6a8c5b5ULL}},
      {"SlowMo",
       {0x3e63d14397ba2958ULL, 0x3e63d14397ba2958ULL, 0x3e63d14397ba2958ULL,
        0x3e63d14397ba2958ULL, 0x3e63d14397ba2958ULL, 0x3e63d14397ba2958ULL,
        0xc1bacc66f77a885fULL, 0xc1bacc66f77a885fULL, 0xc1bacc66f77a885fULL}},
      {"FedNAG",
       {0x8bd8e3a27f1c641aULL, 0x8bd8e3a27f1c641aULL, 0x8bd8e3a27f1c641aULL,
        0x8bd8e3a27f1c641aULL, 0x8bd8e3a27f1c641aULL, 0x8bd8e3a27f1c641aULL,
        0x30b49acd36b194b9ULL, 0x30b49acd36b194b9ULL, 0x30b49acd36b194b9ULL}},
      {"Mime",
       {0x23aba270e5b2cf0cULL, 0x23aba270e5b2cf0cULL, 0x23aba270e5b2cf0cULL,
        0x23aba270e5b2cf0cULL, 0x23aba270e5b2cf0cULL, 0x23aba270e5b2cf0cULL,
        0x46082842c7e0360fULL, 0x46082842c7e0360fULL, 0x46082842c7e0360fULL}},
      {"FedAvg",
       {0x120cb2cb5d497153ULL, 0x120cb2cb5d497153ULL, 0x120cb2cb5d497153ULL,
        0x120cb2cb5d497153ULL, 0x120cb2cb5d497153ULL, 0x120cb2cb5d497153ULL,
        0x07ea76fccf4c9e1fULL, 0x07ea76fccf4c9e1fULL, 0x07ea76fccf4c9e1fULL}},
      {"MimeLite",
       {0x25db753bc1a196f1ULL, 0x25db753bc1a196f1ULL, 0x25db753bc1a196f1ULL,
        0x25db753bc1a196f1ULL, 0x25db753bc1a196f1ULL, 0x25db753bc1a196f1ULL,
        0xeed8b069961f9796ULL, 0xeed8b069961f9796ULL, 0xeed8b069961f9796ULL}},
  };
  return &table;
#elif defined(HFL_GOLDEN_NATIVE_FLAGS) && defined(__AVX512F__)
  static const std::map<std::string, RunDigests> table{
      {"HierAdMo",
       {0x72a156e529f625c6ULL, 0xf46776f23bb6126fULL, 0xb0b8776c23061049ULL,
        0x72a156e529f625c6ULL, 0xf46776f23bb6126fULL, 0xb0b8776c23061049ULL,
        0x08737e4e7ed6869dULL, 0xe7c68691572a86b8ULL, 0x5c7032c2c5e39d4eULL}},
      {"HierAdMo-R",
       {0x5815729c5fd45766ULL, 0x096faf7af7b94196ULL, 0xa12141b57f3ad2c5ULL,
        0x5815729c5fd45766ULL, 0x096faf7af7b94196ULL, 0xa12141b57f3ad2c5ULL,
        0x7bf13c6282b10b82ULL, 0xcabb064601a5573bULL, 0xa5b4dc50ae2008b1ULL}},
      {"HierFAVG",
       {0x60dc6ddc0f2d31fbULL, 0x60dc6ddc0f2d31fbULL, 0x60dc6ddc0f2d31fbULL,
        0x60dc6ddc0f2d31fbULL, 0x60dc6ddc0f2d31fbULL, 0x60dc6ddc0f2d31fbULL,
        0xf72883162769fe53ULL, 0xf72883162769fe53ULL, 0xf72883162769fe53ULL}},
      {"CFL",
       {0xef64b408277bd8dcULL, 0xef64b408277bd8dcULL, 0xef64b408277bd8dcULL,
        0xef64b408277bd8dcULL, 0xef64b408277bd8dcULL, 0xef64b408277bd8dcULL,
        0x738359fd8041fb5bULL, 0x738359fd8041fb5bULL, 0x738359fd8041fb5bULL}},
      {"FastSlowMo",
       {0x1de8c6fceeb6eceeULL, 0x1de8c6fceeb6eceeULL, 0x1de8c6fceeb6eceeULL,
        0x1de8c6fceeb6eceeULL, 0x1de8c6fceeb6eceeULL, 0x1de8c6fceeb6eceeULL,
        0x42803c5f86c79f31ULL, 0x42803c5f86c79f31ULL, 0x42803c5f86c79f31ULL}},
      {"FedADC",
       {0xffa8c5a87333b25cULL, 0xffa8c5a87333b25cULL, 0xffa8c5a87333b25cULL,
        0xffa8c5a87333b25cULL, 0xffa8c5a87333b25cULL, 0xffa8c5a87333b25cULL,
        0x9f81e15eca4cbedcULL, 0x9f81e15eca4cbedcULL, 0x9f81e15eca4cbedcULL}},
      {"FedMom",
       {0x64c1700be84a4381ULL, 0x64c1700be84a4381ULL, 0x64c1700be84a4381ULL,
        0x64c1700be84a4381ULL, 0x64c1700be84a4381ULL, 0x64c1700be84a4381ULL,
        0x625c6e2af97532f2ULL, 0x625c6e2af97532f2ULL, 0x625c6e2af97532f2ULL}},
      {"SlowMo",
       {0xecda9acaaf0e68dfULL, 0xecda9acaaf0e68dfULL, 0xecda9acaaf0e68dfULL,
        0xecda9acaaf0e68dfULL, 0xecda9acaaf0e68dfULL, 0xecda9acaaf0e68dfULL,
        0xc72576119f5058a6ULL, 0xc72576119f5058a6ULL, 0xc72576119f5058a6ULL}},
      {"FedNAG",
       {0x1410cfb5db970ebaULL, 0x1410cfb5db970ebaULL, 0x1410cfb5db970ebaULL,
        0x1410cfb5db970ebaULL, 0x1410cfb5db970ebaULL, 0x1410cfb5db970ebaULL,
        0xe5fbff67f3e42233ULL, 0xe5fbff67f3e42233ULL, 0xe5fbff67f3e42233ULL}},
      {"Mime",
       {0x97fabe16557e8c17ULL, 0x97fabe16557e8c17ULL, 0x97fabe16557e8c17ULL,
        0x97fabe16557e8c17ULL, 0x97fabe16557e8c17ULL, 0x97fabe16557e8c17ULL,
        0xe631d0e1a78637c1ULL, 0xe631d0e1a78637c1ULL, 0xe631d0e1a78637c1ULL}},
      {"FedAvg",
       {0x9e1388c63d2d0053ULL, 0x9e1388c63d2d0053ULL, 0x9e1388c63d2d0053ULL,
        0x9e1388c63d2d0053ULL, 0x9e1388c63d2d0053ULL, 0x9e1388c63d2d0053ULL,
        0x2d641638a5445b00ULL, 0x2d641638a5445b00ULL, 0x2d641638a5445b00ULL}},
      {"MimeLite",
       {0xbb8dcdcb94cdaec5ULL, 0xbb8dcdcb94cdaec5ULL, 0xbb8dcdcb94cdaec5ULL,
        0xbb8dcdcb94cdaec5ULL, 0xbb8dcdcb94cdaec5ULL, 0xbb8dcdcb94cdaec5ULL,
        0x10db81230daae078ULL, 0x10db81230daae078ULL, 0x10db81230daae078ULL}},
  };
  return &table;
#else
  return nullptr;
#endif
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  return names;
}

class FaultRunGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultRunGoldenTest, MatchesGoldenDigests) {
  const std::map<std::string, RunDigests>* golden = golden_runs();
  if (golden == nullptr) {
    GTEST_SKIP() << "FMA build without the default Release flags: digests "
                    "are pinned on the portable build";
  }
  Fixture f;
  RunDigests got{};
  std::size_t i = 0;
  for (const EngineKind kind : {EngineKind::kOwnStore, EngineKind::kFullCohort,
                                EngineKind::kSampled}) {
    for (const fl::AbsentPolicy policy :
         {fl::AbsentPolicy::kHold, fl::AbsentPolicy::kReset,
          fl::AbsentPolicy::kDecay}) {
      got[i++] =
          fault_run_digest(f, *algs::make_algorithm(GetParam()), kind, policy);
    }
  }
  const std::string row = golden::format_row(GetParam(), got);
  const auto it = golden->find(GetParam());
  ASSERT_NE(it, golden->end()) << "no golden row; measured:\n" << row;
  EXPECT_EQ(it->second, got) << "measured:\n" << row;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, FaultRunGoldenTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// HierAdMo variants
// ---------------------------------------------------------------------------

// The registry builds HierAdMo with its default signal and lossless
// uploads; these are the configurations it does not reach.
std::unique_ptr<fl::Algorithm> make_hieradmo_variant(const std::string& name) {
  core::HierAdMoOptions opt;
  if (name == "velocity") {
    opt.signal = core::HierAdMoOptions::Signal::kVelocity;
  } else if (name == "cross_worker") {
    opt.signal = core::HierAdMoOptions::Signal::kCrossWorker;
  } else {
    opt.upload_compressor = std::make_shared<fl::TopKCompressor>(0.25);
  }
  return std::make_unique<core::HierAdMo>(opt);
}

const std::map<std::string, RunDigests>* golden_variant_runs() {
#if !defined(__FMA__)
  static const std::map<std::string, RunDigests> table{
      {"velocity",
       {0xe4fb832c82ebecf2ULL, 0xa5c2c9ab4dfb0db9ULL, 0xef001f341a48deb9ULL,
        0xe4fb832c82ebecf2ULL, 0xa5c2c9ab4dfb0db9ULL, 0xef001f341a48deb9ULL,
        0x65b8783f7d366038ULL, 0xed25917a7e9055c0ULL, 0xdc10e3db37b4fd68ULL}},
      {"cross_worker",
       {0xd0f7226aa621ecd8ULL, 0x4bd5f92f5ed11d6dULL, 0x699e7e90306ff499ULL,
        0xd0f7226aa621ecd8ULL, 0x4bd5f92f5ed11d6dULL, 0x699e7e90306ff499ULL,
        0x080d44a39edbe4c9ULL, 0x0fa55147c19c758bULL, 0x053f7cbbed2dca83ULL}},
      {"topk",
       {0xf3d8439866061d3aULL, 0xc1acc454769f97a0ULL, 0xce293c47b4eb60fdULL,
        0xf3d8439866061d3aULL, 0xc1acc454769f97a0ULL, 0xce293c47b4eb60fdULL,
        0x161cbda860609cadULL, 0xec7dd353e77cab85ULL, 0x162471cfff064e63ULL}},
  };
  return &table;
#elif defined(HFL_GOLDEN_NATIVE_FLAGS) && defined(__AVX512F__)
  static const std::map<std::string, RunDigests> table{
      {"velocity",
       {0x4e71894caa072578ULL, 0x46ab1ce20c57f5e3ULL, 0xa711acd84b89cefeULL,
        0x4e71894caa072578ULL, 0x46ab1ce20c57f5e3ULL, 0xa711acd84b89cefeULL,
        0x8712c46fd30461bfULL, 0x465f40534a3aaaf8ULL, 0x8d126d570c468ae3ULL}},
      {"cross_worker",
       {0x3a278e9c4b0c2481ULL, 0x2177702e39cae9e8ULL, 0x5fb4018dae826e25ULL,
        0x3a278e9c4b0c2481ULL, 0x2177702e39cae9e8ULL, 0x5fb4018dae826e25ULL,
        0x8ab37dc1ff0f03ebULL, 0x4dfc6e2caf6ffdcfULL, 0xac7b262bd38b6720ULL}},
      {"topk",
       {0x3da7b96e74f804d2ULL, 0x3b0fdeeaec758f50ULL, 0xbb3dc3bd569c8321ULL,
        0x3da7b96e74f804d2ULL, 0x3b0fdeeaec758f50ULL, 0xbb3dc3bd569c8321ULL,
        0x912fbb6dc5dcdd38ULL, 0xe3635d7caed64ab4ULL, 0x4e1dc7a9e89af697ULL}},
  };
  return &table;
#else
  return nullptr;
#endif
}

class HierAdMoVariantGoldenTest
    : public ::testing::TestWithParam<std::string> {};

// The same nine settings as FaultRunGoldenTest. The sampled store spills
// and restores workers under every policy, so the kReset and kDecay rows
// also pin the spill record and its absent-policy replay for each variant.
TEST_P(HierAdMoVariantGoldenTest, MatchesGoldenDigests) {
  const std::map<std::string, RunDigests>* golden = golden_variant_runs();
  if (golden == nullptr) {
    GTEST_SKIP() << "FMA build without the default Release flags: digests "
                    "are pinned on the portable build";
  }
  Fixture f;
  RunDigests got{};
  std::size_t i = 0;
  for (const EngineKind kind : {EngineKind::kOwnStore, EngineKind::kFullCohort,
                                EngineKind::kSampled}) {
    for (const fl::AbsentPolicy policy :
         {fl::AbsentPolicy::kHold, fl::AbsentPolicy::kReset,
          fl::AbsentPolicy::kDecay}) {
      got[i++] = fault_run_digest(f, *make_hieradmo_variant(GetParam()), kind,
                                  policy);
      if (kind == EngineKind::kSampled) {
        obs::Registry& reg = obs::Registry::global();
        EXPECT_GT(reg.counter("pop.spills").value(), 0u);
        EXPECT_GT(reg.counter("pop.restores").value(), 0u);
      }
    }
  }
  const std::string row = golden::format_row(GetParam(), got);
  const auto it = golden->find(GetParam());
  ASSERT_NE(it, golden->end()) << "no golden row; measured:\n" << row;
  EXPECT_EQ(it->second, got) << "measured:\n" << row;
}

INSTANTIATE_TEST_SUITE_P(Ablations, HierAdMoVariantGoldenTest,
                         ::testing::Values("velocity", "cross_worker",
                                           "topk"));

// ---------------------------------------------------------------------------
// MiniResNet engine run
// ---------------------------------------------------------------------------

// {unbatched, batched}: the two must agree, and both must match the table.
using ResNetDigests = std::array<std::uint64_t, 2>;

const ResNetDigests* golden_resnet() {
#if !defined(__FMA__)
  static const ResNetDigests digests{0xeb88ce7e16384124ULL,
                                     0xeb88ce7e16384124ULL};
  return &digests;
#elif defined(HFL_GOLDEN_NATIVE_FLAGS) && defined(__AVX512F__)
  static const ResNetDigests digests{0xc96d63f009915063ULL,
                                     0xc96d63f009915063ULL};
  return &digests;
#else
  return nullptr;
#endif
}

TEST(ResNetRunGoldenTest, MatchesGoldenDigests) {
  const ResNetDigests* golden = golden_resnet();
  if (golden == nullptr) {
    GTEST_SKIP() << "FMA build without the default Release flags: digests "
                    "are pinned on the portable build";
  }
  Rng rng(3);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 8, 8};
  spec.num_classes = 3;
  spec.train_size = 48;
  spec.test_size = 30;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const fl::Topology topo = fl::Topology::uniform(2, 2);
  const data::Partition partition =
      data::partition_iid(dataset.train, topo.num_workers(), rng);
  const nn::ModelFactory factory = nn::mini_resnet({1, 8, 8}, 3);

  fl::RunConfig cfg;
  cfg.total_iterations = 12;  // three cloud rounds
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.batch_size = 4;
  cfg.seed = 5;
  cfg.num_threads = 1;
  ResNetDigests got{};
  for (const bool batched : {false, true}) {
    cfg.batched = batched;
    fl::Engine engine(factory, dataset, partition, topo, cfg);
    auto alg = algs::make_algorithm("HierAdMo");
    const fl::RunResult r = engine.run(*alg);
    golden::Fnv h;
    for (const fl::MetricPoint& p : r.curve) {
      h.add(p.iteration);
      h.add(p.test_loss);
      h.add(p.test_accuracy);
    }
    h.add(r.final_params);
    got[batched ? 1 : 0] = h.value();
  }
  EXPECT_EQ(*golden, got) << "measured:\n"
                          << golden::format_row("MiniResNet", got);
}

}  // namespace
}  // namespace hfl

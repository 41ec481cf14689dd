// Cohort-provider parity on a 64-worker population.
//
// Every fl::Engine run reads its workers through a CohortProvider: an
// attached pop::CohortStore, or the full-cohort store the engine builds for
// itself (src/fl/engine.h, src/pop/cohort_store.h). Which store serves a run
// changes NOTHING observable:
//
//   * An attached full-cohort store (cohort_size = 0) reproduces the
//     engine's own store bit for bit — curve, final parameters,
//     participation trace, miss counts, obs sync counters and per-link comm
//     bytes — for every registry algorithm (plus MimeLite), with and
//     without a fault schedule, at 1 and 4 threads.
//
//   * The provider lifecycle: detaching a provider (set_cohort_provider
//     with nullptr) falls back to the engine's own store and reproduces a
//     never-attached run, and run_with_oracle on a bare engine equals run
//     on the same schedule.
//
//   * Sampled mode must equal a FULL-COHORT run driven by the induced
//     participation schedule (absent = outside the cohort, or failed by the
//     fault oracle; kHold absent policy): per-worker RNG streams are derived
//     statelessly and spill/restore is byte-exact, so materializing only the
//     cohort is invisible to the math. Mime/MimeLite are excluded here by
//     design: their init probes every worker's aux stream, and a sampled
//     store materializes only the first cohort (documented in DESIGN.md).
//
//   * Sampled runs are seed-deterministic: 1-thread and 4-thread runs (and
//     repeated runs, exercising a fresh spill/restore history each time)
//     are bit-identical — this is the HierAdMo momentum spill/restore
//     bit-identity test, since revisited workers cross the slab with live
//     momentum and accumulator state.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"
#include "src/sim/sparse_fault_plan.h"

namespace hfl::fl {
namespace {

struct Fixture {
  data::TrainTest dataset;
  Topology topo{Topology::uniform(4, 16)};  // 4 edges × 16 workers = 64
  data::Partition partition;
  nn::ModelFactory factory;
  RunConfig cfg3;  // three-tier
  RunConfig cfg2;  // two-tier (π = 1, matched period)

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

  RunConfig config_for(const Algorithm& alg) const {
    return alg.three_tier() ? cfg3 : cfg2;
  }
};

struct ObsSnapshot {
  std::uint64_t edge_syncs = 0;
  std::uint64_t cloud_syncs = 0;
  obs::LinkTotals worker_edge;
  obs::LinkTotals edge_cloud;
  obs::LinkTotals worker_cloud;
};

bool operator==(const obs::LinkTotals& a, const obs::LinkTotals& b) {
  return a.messages == b.messages && a.logical_bytes == b.logical_bytes &&
         a.saved_bytes == b.saved_bytes;
}

// One run; `virt` non-null attaches a store built from it (null runs on the
// engine's own full-cohort store), `oracle` non-null supplies fault
// availability through run_with_oracle.
RunResult run_once(const Fixture& f, Algorithm& alg, std::size_t threads,
                   const ParticipationSchedule* schedule,
                   pop::VirtConfig* virt, const AvailabilityOracle* oracle,
                   ObsSnapshot* snap) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::CommAccountant::global().reset();
  RunConfig cfg = f.config_for(alg);
  cfg.num_threads = threads;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  std::unique_ptr<pop::CohortStore> store;
  if (virt != nullptr) {
    store = std::make_unique<pop::CohortStore>(f.factory, f.dataset,
                                               f.partition, f.topo, cfg,
                                               *virt);
    engine.set_cohort_provider(store.get());
  }
  RunResult r = oracle != nullptr ? engine.run_with_oracle(alg, oracle)
                                  : engine.run(alg, schedule);
  if (snap != nullptr) {
    auto& reg = obs::Registry::global();
    auto& comm = obs::CommAccountant::global();
    snap->edge_syncs = reg.counter("engine.edge_syncs").value();
    snap->cloud_syncs = reg.counter("engine.cloud_syncs").value();
    snap->worker_edge = comm.totals(obs::Link::kWorkerToEdge);
    snap->edge_cloud = comm.totals(obs::Link::kEdgeToCloud);
    snap->worker_cloud = comm.totals(obs::Link::kWorkerToCloud);
  }
  obs::set_enabled(false);
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].iteration, b.curve[i].iteration);
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy);
  }
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.mean_participation_rate, b.mean_participation_rate);
  EXPECT_EQ(a.worker_miss_counts, b.worker_miss_counts);
  ASSERT_EQ(a.participation.size(), b.participation.size());
  for (std::size_t i = 0; i < a.participation.size(); ++i) {
    EXPECT_EQ(a.participation[i].active_workers,
              b.participation[i].active_workers);
    EXPECT_EQ(a.participation[i].total_workers,
              b.participation[i].total_workers);
    EXPECT_EQ(a.participation[i].active_edges,
              b.participation[i].active_edges);
    EXPECT_EQ(a.participation[i].rate, b.participation[i].rate);
  }
}

void expect_identical(const ObsSnapshot& a, const ObsSnapshot& b) {
  EXPECT_EQ(a.edge_syncs, b.edge_syncs);
  EXPECT_EQ(a.cloud_syncs, b.cloud_syncs);
  EXPECT_TRUE(a.worker_edge == b.worker_edge);
  EXPECT_TRUE(a.edge_cloud == b.edge_cloud);
  EXPECT_TRUE(a.worker_cloud == b.worker_cloud);
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  return names;
}

std::vector<std::string> sampled_algorithms() {
  std::vector<std::string> names;
  for (const std::string& n : all_algorithms()) {
    // Mime's ĝ probe walks every active worker, which a sampled store cannot
    // serve exactly: the cohort-estimated mode (cfg.mime_cohort_stats) is a
    // different estimator, so it is checked by MimeCohortStatsTest's drift
    // bound below instead of the bit-parity harness here.
    if (n != "Mime" && n != "MimeLite") names.push_back(n);
  }
  return names;
}

sim::FaultConfig fault_config() {
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.2;
  fc.churn.p_fail = 0.1;
  fc.churn.p_recover = 0.7;
  fc.edge_outage.prob = 0.1;
  return fc;
}

class FullCohortParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FullCohortParityTest, MatchesDenseEngine) {
  Fixture f;
  pop::VirtConfig virt;  // cohort_size = 0: the engine's own configuration
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto dense_alg = algs::make_algorithm(GetParam());
    auto virt_alg = algs::make_algorithm(GetParam());
    ObsSnapshot dense_obs, virt_obs;
    const RunResult dense =
        run_once(f, *dense_alg, threads, nullptr, nullptr, nullptr,
                 &dense_obs);
    const RunResult virtualized =
        run_once(f, *virt_alg, threads, nullptr, &virt, nullptr, &virt_obs);
    expect_identical(dense, virtualized);
    expect_identical(dense_obs, virt_obs);
  }
}

TEST_P(FullCohortParityTest, MatchesDenseEngineUnderFaults) {
  Fixture f;
  pop::VirtConfig virt;
  auto dense_alg = algs::make_algorithm(GetParam());
  auto virt_alg = algs::make_algorithm(GetParam());
  const sim::FaultPlan plan(f.topo, f.config_for(*dense_alg), fault_config());
  ObsSnapshot dense_obs, virt_obs;
  const RunResult dense = run_once(f, *dense_alg, 4, &plan.schedule(),
                                   nullptr, nullptr, &dense_obs);
  // Both runs replay the same dense schedule through its oracle adapter
  // (Engine::run wraps it in a ScheduleOracle).
  const RunResult virtualized = run_once(f, *virt_alg, 4, &plan.schedule(),
                                         &virt, nullptr, &virt_obs);
  expect_identical(dense, virtualized);
  expect_identical(dense_obs, virt_obs);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, FullCohortParityTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The participation schedule a sampled run induces on a full-cohort run:
// absent = outside interval k's cohort, or failed by `oracle`.
ParticipationSchedule induced_schedule(const Fixture& f, const RunConfig& cfg,
                                       std::size_t cohort_size,
                                       const AvailabilityOracle* oracle) {
  pop::VirtConfig virt;
  virt.cohort_size = cohort_size;
  pop::CohortStore replica(f.factory, f.dataset, f.partition, f.topo, cfg,
                           virt);

  ParticipationSchedule s;
  s.num_intervals = cfg.total_iterations / cfg.tau;
  s.num_workers = f.topo.num_workers();
  s.num_edges = f.topo.num_edges();
  s.worker_up.assign(s.num_intervals * s.num_workers, 0);
  s.slowdown.assign(s.num_intervals * s.num_workers, 1.0);
  s.edge_up.assign(s.num_intervals * s.num_edges, 1);

  std::vector<WorkerId> ids;
  std::vector<Scalar> mult;
  for (std::size_t k = 1; k <= s.num_intervals; ++k) {
    replica.sample_cohort(k, ids, mult);
    for (const WorkerId id : ids) {
      const bool up =
          oracle == nullptr || oracle->worker_available(k, id);
      s.worker_up[(k - 1) * s.num_workers + id] = up ? 1 : 0;
    }
    if (oracle != nullptr) {
      for (std::size_t e = 0; e < s.num_edges; ++e) {
        s.edge_up[(k - 1) * s.num_edges + e] =
            oracle->edge_available(k, e) ? 1 : 0;
      }
    }
  }
  return s;
}

class SampledParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SampledParityTest, MatchesDenseRunOnInducedSchedule) {
  Fixture f;
  auto virt_alg = algs::make_algorithm(GetParam());
  auto dense_alg = algs::make_algorithm(GetParam());
  const RunConfig cfg = f.config_for(*virt_alg);

  pop::VirtConfig virt;
  virt.cohort_size = 16;  // 16 of 64: spills and restores every interval
  const RunResult sampled =
      run_once(f, *virt_alg, 4, nullptr, &virt, nullptr, nullptr);

  const ParticipationSchedule induced =
      induced_schedule(f, cfg, virt.cohort_size, nullptr);
  const RunResult dense =
      run_once(f, *dense_alg, 4, &induced, nullptr, nullptr, nullptr);
  expect_identical(dense, sampled);
}

TEST_P(SampledParityTest, MatchesDenseRunOnInducedScheduleUnderFaults) {
  Fixture f;
  auto virt_alg = algs::make_algorithm(GetParam());
  auto dense_alg = algs::make_algorithm(GetParam());
  const RunConfig cfg = f.config_for(*virt_alg);
  const sim::SparseFaultPlan sparse(f.topo.num_workers(), f.topo.num_edges(),
                                    fault_config());

  pop::VirtConfig virt;
  virt.cohort_size = 16;
  const RunResult sampled =
      run_once(f, *virt_alg, 4, nullptr, &virt, &sparse, nullptr);

  const ParticipationSchedule induced =
      induced_schedule(f, cfg, virt.cohort_size, &sparse);
  const RunResult dense =
      run_once(f, *dense_alg, 4, &induced, nullptr, nullptr, nullptr);
  expect_identical(dense, sampled);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SampledParityTest, ::testing::ValuesIn(sampled_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SampledDeterminismTest, ThreadCountInvariantAndRepeatable) {
  Fixture f;
  pop::VirtConfig virt;
  virt.cohort_size = 16;
  // HierAdMo carries live momentum/accumulator state across spill-restore
  // cycles; any byte lost in the slab diverges the curve.
  auto a1 = algs::make_algorithm("HierAdMo");
  auto a4 = algs::make_algorithm("HierAdMo");
  auto again = algs::make_algorithm("HierAdMo");
  const RunResult serial =
      run_once(f, *a1, 1, nullptr, &virt, nullptr, nullptr);
  const RunResult parallel =
      run_once(f, *a4, 4, nullptr, &virt, nullptr, nullptr);
  const RunResult repeat =
      run_once(f, *again, 4, nullptr, &virt, nullptr, nullptr);
  expect_identical(serial, parallel);
  expect_identical(serial, repeat);
}

TEST(SampledDeterminismTest, FileSlabMatchesMemorySlab) {
  Fixture f;
  pop::VirtConfig mem;
  mem.cohort_size = 16;
  pop::VirtConfig file = mem;
  file.slab.backend = pop::SlabConfig::Backend::kFile;
  file.slab.path = ::testing::TempDir() + "hfl_parity_slab.bin";
  auto a = algs::make_algorithm("HierAdMo");
  auto b = algs::make_algorithm("HierAdMo");
  const RunResult in_memory =
      run_once(f, *a, 4, nullptr, &mem, nullptr, nullptr);
  const RunResult on_disk =
      run_once(f, *b, 4, nullptr, &file, nullptr, nullptr);
  expect_identical(in_memory, on_disk);
  std::remove(file.slab.path.c_str());
}

TEST(SampledDeterminismTest, WithReplacementRepeatable) {
  Fixture f;
  pop::VirtConfig virt;
  virt.cohort_size = 16;
  virt.with_replacement = true;
  auto a = algs::make_algorithm("HierAdMo");
  auto b = algs::make_algorithm("HierAdMo");
  const RunResult first = run_once(f, *a, 1, nullptr, &virt, nullptr, nullptr);
  const RunResult second =
      run_once(f, *b, 4, nullptr, &virt, nullptr, nullptr);
  expect_identical(first, second);
}

TEST(SampledDeterminismTest, MaterializationStaysCohortBounded) {
  Fixture f;
  pop::VirtConfig virt;
  virt.cohort_size = 8;
  RunConfig cfg = f.cfg3;
  cfg.num_threads = 1;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg,
                         virt);
  engine.set_cohort_provider(&store);
  auto alg = algs::make_algorithm("HierAdMo");
  obs::set_enabled(true);
  obs::Registry::global().reset();
  engine.run(*alg);
  const double gauge_peak =
      obs::Registry::global().gauge("pop.materialized_peak").value();
  obs::set_enabled(false);
  EXPECT_LE(store.num_materialized(), virt.cohort_size);
  EXPECT_LE(store.peak_materialized(), virt.cohort_size);
  EXPECT_GT(store.slab().num_entries(), 0u);  // rotation actually spilled
  // The telemetry gauge reports the store's own peak.
  EXPECT_EQ(gauge_peak, static_cast<double>(store.peak_materialized()));
}

TEST(ProviderLifecycleTest, BareRunWithOracleMatchesScheduledRun) {
  Fixture f;
  RunConfig cfg = f.cfg3;
  cfg.num_threads = 4;
  const sim::FaultPlan plan(f.topo, cfg, fault_config());
  const ScheduleOracle oracle(plan.schedule());
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  auto a = algs::make_algorithm("HierAdMo");
  auto b = algs::make_algorithm("HierAdMo");
  const RunResult scheduled = engine.run(*a, &plan.schedule());
  const RunResult with_oracle = engine.run_with_oracle(*b, &oracle);
  expect_identical(scheduled, with_oracle);
}

TEST(ProviderLifecycleTest, DetachFallsBackToOwnStore) {
  Fixture f;
  RunConfig cfg = f.cfg3;
  cfg.num_threads = 4;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::VirtConfig virt;
  virt.cohort_size = 16;
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg,
                         virt);
  auto a = algs::make_algorithm("HierAdMo");
  auto b = algs::make_algorithm("HierAdMo");
  auto c = algs::make_algorithm("HierAdMo");
  const RunResult own = engine.run(*a);
  engine.set_cohort_provider(&store);
  const RunResult sampled = engine.run(*b);
  engine.set_cohort_provider(nullptr);
  const RunResult detached = engine.run(*c);
  EXPECT_NE(sampled.final_params, own.final_params);  // the store was used
  expect_identical(own, detached);
}

TEST(SampledModeGuardsTest, RejectsMisalignedEval) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  RunConfig cfg = f.cfg3;
  cfg.eval_every = 3;  // not a multiple of tau*pi = 4
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::VirtConfig virt;
  virt.cohort_size = 8;
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg,
                         virt);
  engine.set_cohort_provider(&store);
  EXPECT_THROW(engine.run(*alg), Error);
}

// Mime under cohort sampling: the population-wide ĝ probe is replaced by a
// cohort-renormalized estimate behind cfg.mime_cohort_stats. Not an exact
// reproduction (different probe set, different batch-RNG consumption), so
// the contract is (a) the engine refuses the silent bias when the flag is
// off, and (b) with the flag on, the estimated run tracks the full-population
// run to a loose drift bound instead of diverging.
class MimeCohortStatsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MimeCohortStatsTest, RejectsSampledRunWithoutFlag) {
  Fixture f;
  auto alg = algs::make_algorithm(GetParam());
  const RunConfig cfg = f.config_for(*alg);
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::VirtConfig virt;
  virt.cohort_size = 16;
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg,
                         virt);
  engine.set_cohort_provider(&store);
  EXPECT_THROW(engine.run(*alg), Error);
}

TEST_P(MimeCohortStatsTest, CohortEstimateTracksFullPopulation) {
  Fixture f;
  auto full_alg = algs::make_algorithm(GetParam());
  const RunResult full =
      run_once(f, *full_alg, 1, nullptr, nullptr, nullptr, nullptr);

  auto sampled_alg = algs::make_algorithm(GetParam());
  RunConfig cfg = f.config_for(*sampled_alg);
  cfg.mime_cohort_stats = true;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  pop::VirtConfig virt;
  virt.cohort_size = 16;  // 16 of 64 workers per interval
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, cfg,
                         virt);
  engine.set_cohort_provider(&store);
  const RunResult sampled = engine.run(*sampled_alg);

  // A quarter-population estimate of ĝ must stay in the full run's
  // neighborhood — catching both a biased (un-renormalized) estimate and a
  // broken probe path, while leaving room for honest sampling noise.
  EXPECT_NEAR(sampled.final_loss, full.final_loss, 0.25);
  EXPECT_GT(sampled.final_accuracy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Registry, MimeCohortStatsTest,
                         ::testing::Values("Mime", "MimeLite"));

}  // namespace
}  // namespace hfl::fl

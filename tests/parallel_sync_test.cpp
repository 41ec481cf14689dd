// Serial vs parallel bit-identity for the engine's sync tier.
//
// The engine dispatches edge_sync concurrently and hands its pool to the
// cloud/eval reductions; the contract (engine.h) is that nothing observable
// may depend on the thread count. For every registry algorithm (plus
// MimeLite) on a 3-edge / 9-worker topology, with and without a fault
// schedule, a num_threads == 4 run must reproduce the num_threads == 1 run
// exactly: accuracy/loss curve, final parameters, participation trace, and
// obs counters (sync counts, per-link comm bytes).
//
// The fixture's 30-parameter model sits below the reductions' parallel
// cutoff (1 << 14 elements), so those runs take the serial reduction.
// ParallelReductionTest drives aggregate_global / aggregate_edges directly
// at 2^18 elements on a 4-thread pool, where the element-partitioned path
// runs, and compares it bitwise with the serial path.
//
// Also covered: the non-re-entrant escape hatch (an algorithm holding a
// stateful compressor is serialized but still matches its own serial run),
// the EdgeSyncGuard debug assert, and fl::run_sweep reproducing a serial
// loop job-for-job.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/core/hieradmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/compression.h"
#include "src/fl/sweep.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
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

  Fixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 3, 3};
    spec.num_classes = 3;
    spec.train_size = 90;
    spec.test_size = 30;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    factory = nn::logistic_regression({1, 3, 3}, 3);

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

// Observable side effects of one run, captured from the global telemetry.
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

RunResult run_once(const Fixture& f, Algorithm& alg, std::size_t threads,
                   const ParticipationSchedule* schedule, ObsSnapshot* snap) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::CommAccountant::global().reset();
  RunConfig cfg = f.config_for(alg);
  cfg.num_threads = threads;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  RunResult r = engine.run(alg, schedule);
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

void expect_identical(const RunResult& serial, const RunResult& parallel) {
  ASSERT_EQ(serial.curve.size(), parallel.curve.size());
  for (std::size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_EQ(serial.curve[i].iteration, parallel.curve[i].iteration);
    // EXPECT_EQ, not NEAR: the contract is bit-identity, not tolerance.
    EXPECT_EQ(serial.curve[i].test_loss, parallel.curve[i].test_loss);
    EXPECT_EQ(serial.curve[i].test_accuracy, parallel.curve[i].test_accuracy);
  }
  EXPECT_EQ(serial.final_params, parallel.final_params);
  EXPECT_EQ(serial.final_accuracy, parallel.final_accuracy);
  EXPECT_EQ(serial.final_loss, parallel.final_loss);
  EXPECT_EQ(serial.mean_participation_rate, parallel.mean_participation_rate);
  ASSERT_EQ(serial.participation.size(), parallel.participation.size());
  for (std::size_t i = 0; i < serial.participation.size(); ++i) {
    EXPECT_EQ(serial.participation[i].active_workers,
              parallel.participation[i].active_workers);
    EXPECT_EQ(serial.participation[i].active_edges,
              parallel.participation[i].active_edges);
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

class ParallelSyncTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelSyncTest, FullParticipationBitIdentical) {
  Fixture f;
  auto serial_alg = algs::make_algorithm(GetParam());
  auto parallel_alg = algs::make_algorithm(GetParam());
  ObsSnapshot serial_obs, parallel_obs;
  const RunResult serial = run_once(f, *serial_alg, 1, nullptr, &serial_obs);
  const RunResult parallel =
      run_once(f, *parallel_alg, 4, nullptr, &parallel_obs);
  expect_identical(serial, parallel);
  expect_identical(serial_obs, parallel_obs);
}

TEST_P(ParallelSyncTest, FaultScheduleBitIdentical) {
  Fixture f;
  auto serial_alg = algs::make_algorithm(GetParam());
  auto parallel_alg = algs::make_algorithm(GetParam());
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.3;
  const sim::FaultPlan plan(f.topo, f.config_for(*serial_alg), fc);
  ObsSnapshot serial_obs, parallel_obs;
  const RunResult serial =
      run_once(f, *serial_alg, 1, &plan.schedule(), &serial_obs);
  const RunResult parallel =
      run_once(f, *parallel_alg, 4, &plan.schedule(), &parallel_obs);
  expect_identical(serial, parallel);
  expect_identical(serial_obs, parallel_obs);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ParallelSyncTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// A stateful (seeded-RNG) compressor makes HierAdMo's edge_sync serial-only;
// the engine must serialize it and still match the num_threads == 1 run.
TEST(ParallelSyncTest, NonReentrantCompressorSerializedAndIdentical) {
  Fixture f;
  const auto make = [] {
    core::HierAdMoOptions opt;
    opt.upload_compressor = std::make_shared<RandomKCompressor>(0.5, 17);
    return std::make_unique<core::HierAdMo>(opt);
  };
  auto serial_alg = make();
  auto parallel_alg = make();
  ASSERT_FALSE(serial_alg->edge_sync_reentrant());
  const RunResult serial = run_once(f, *serial_alg, 1, nullptr, nullptr);
  const RunResult parallel = run_once(f, *parallel_alg, 4, nullptr, nullptr);
  expect_identical(serial, parallel);
}

#if defined(HFL_SYNC_GUARD)
TEST(EdgeSyncGuardTest, ConcurrentEntryOfSerialOnlySyncFails) {
  std::atomic<int> entries{0};
  const EdgeSyncGuard first(entries, /*reentrant=*/false);
  EXPECT_THROW(EdgeSyncGuard(entries, /*reentrant=*/false), Error);
  // Re-entrant algorithms may overlap freely.
  const EdgeSyncGuard second(entries, /*reentrant=*/true);
  EXPECT_EQ(entries.load(), 2);
}
#endif

// Submits observed by ThreadPool (histogram bounds as it registers them):
// a non-zero count after a call proves the call went through the pool.
std::uint64_t pool_submits() {
  return obs::Registry::global()
      .histogram("pool.queue_depth", "", {1, 2, 4, 8, 16, 32, 64, 128})
      .count();
}

TEST(ParallelReductionTest, PoolPathBitIdenticalToSerial) {
  constexpr std::size_t kDim = 1 << 18;
  Rng rng(11);
  const auto random_vec = [&rng] {
    Vec v(kDim);
    for (Scalar& e : v) e = rng.normal();
    return v;
  };
  // Unequal weights so every product and partial sum is rounded.
  std::vector<WorkerState> workers(8);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = i;
    workers[i].weight_global = 0.05 + 0.2 * rng.uniform();
    workers[i].x = random_vec();
  }
  std::vector<EdgeState> edges(4);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    edges[e].id = e;
    edges[e].weight_global = 0.1 + 0.3 * rng.uniform();
    edges[e].x_plus = random_vec();
  }
  std::vector<std::uint32_t> slots(workers.size());
  std::iota(slots.begin(), slots.end(), 0u);
  const WorkerSet worker_set(&workers, &slots);
  ThreadPool pool(4);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  Vec serial, parallel;
  aggregate_global(worker_set, worker_x, serial, nullptr, nullptr);
  EXPECT_EQ(pool_submits(), 0u);
  aggregate_global(worker_set, worker_x, parallel, nullptr, &pool);
  const std::uint64_t global_submits = pool_submits();
  EXPECT_GT(global_submits, 0u);
  EXPECT_EQ(serial, parallel);

  Vec edge_serial, edge_parallel;
  aggregate_edges(edges, edge_x_plus, edge_serial, nullptr, nullptr);
  aggregate_edges(edges, edge_x_plus, edge_parallel, nullptr, &pool);
  EXPECT_GT(pool_submits(), global_submits);
  EXPECT_EQ(edge_serial, edge_parallel);
  obs::set_enabled(false);
}

TEST(RunSweepTest, MatchesSerialLoopJobForJob) {
  Fixture f;
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.3;
  const sim::FaultPlan plan(f.topo, f.cfg3, fc);

  std::vector<SweepJob> jobs;
  for (const std::string name : {"HierAdMo", "HierFAVG", "FedNAG"}) {
    SweepJob job;
    job.make_algorithm = [name] { return algs::make_algorithm(name); };
    job.cfg = f.config_for(*algs::make_algorithm(name));
    jobs.push_back(std::move(job));
  }
  jobs[1].schedule = &plan.schedule();  // one faulty job in the middle

  std::vector<RunResult> loop;
  for (const SweepJob& job : jobs) {
    auto alg = job.make_algorithm();
    RunConfig cfg = job.cfg;
    cfg.num_threads = 1;
    Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
    loop.push_back(engine.run(*alg, job.schedule));
  }

  SweepOptions opts;
  opts.concurrency = 3;
  const std::vector<SweepResult> sweep =
      run_sweep(f.factory, f.dataset, f.partition, f.topo, jobs, opts);

  ASSERT_EQ(sweep.size(), loop.size());
  EXPECT_EQ(sweep[0].label, "HierAdMo");  // label defaults to the name
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    expect_identical(loop[i], sweep[i].result);
  }
}

TEST(RunSweepTest, RepeatedSweepsIdentical) {
  Fixture f;
  std::vector<SweepJob> jobs(2);
  jobs[0].make_algorithm = [] { return algs::make_algorithm("HierAdMo"); };
  jobs[0].cfg = f.cfg3;
  jobs[1].make_algorithm = [] { return algs::make_algorithm("CFL"); };
  jobs[1].cfg = f.cfg3;
  const auto a = run_sweep(f.factory, f.dataset, f.partition, f.topo, jobs);
  const auto b = run_sweep(f.factory, f.dataset, f.partition, f.topo, jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical(a[i].result, b[i].result);
  }
}

}  // namespace
}  // namespace hfl::fl

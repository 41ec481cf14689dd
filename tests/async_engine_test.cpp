// Event-driven engine tests (src/evt/), mirroring parallel_sync_test.cpp.
//
// The load-bearing contracts:
//   1. Event-mode determinism: semi_async and async runs are pure functions
//      of the seeds. Identical seeds give identical curves, parameters and
//      staleness metrics at 1 and 4 threads, with and without faults.
//   2. Golden digests: every event-driven setting of every registry
//      algorithm hashes to a committed value, so a refactor of src/evt that
//      changes a single bit of any run fails here.
//   3. The sync policy is fl::Engine::run plus a modeled clock.
//
// Also covered: the deterministic (time, seq) event queue, the async
// RunConfig validation rules, the stale_sync default policy, and
// Gauge::set_max.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/errors.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/evt/async_engine.h"
#include "src/evt/event_queue.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/sim/fault_plan.h"
#include "tests/golden.h"

namespace hfl::evt {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, PopsByTimeThenPushOrder) {
  EventQueue q;
  q.push({2.0, 0, EventType::kCloudSync, 10, 0, false, false});
  q.push({1.0, 0, EventType::kWorkerReady, 11, 0, false, false});
  q.push({1.0, 0, EventType::kWorkerReady, 12, 0, false, false});
  q.push({0.5, 0, EventType::kFault, 13, 0, false, false});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.total_pushed(), 4u);

  // Earliest first; equal times resolve in push order (stable seq stamps).
  EXPECT_EQ(q.pop().entity, 13u);
  EXPECT_DOUBLE_EQ(q.now(), 0.5);
  EXPECT_EQ(q.pop().entity, 11u);
  EXPECT_EQ(q.pop().entity, 12u);
  EXPECT_EQ(q.pop().entity, 10u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), Error);
}

TEST(EventQueueTest, RejectsEventsScheduledInThePast) {
  EventQueue q;
  q.push({1.0, 0, EventType::kWorkerReady, 0, 0, false, false});
  (void)q.pop();  // now() = 1.0
  EXPECT_THROW(
      q.push({0.5, 0, EventType::kWorkerReady, 0, 0, false, false}), Error);
  // Exactly "now" is legal (zero-latency follow-up events).
  q.push({1.0, 0, EventType::kWorkerReady, 0, 0, false, false});
  EXPECT_EQ(q.size(), 1u);
}

// ---------------------------------------------------------------------------
// Gauge::set_max
// ---------------------------------------------------------------------------

TEST(ObsGaugeTest, SetMaxIsMonotone) {
  obs::set_enabled(true);
  obs::Gauge g;
  g.set_max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(1.0);  // lower values never win
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  obs::set_enabled(false);
  g.set_max(9.0);  // disabled telemetry records nothing
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

// ---------------------------------------------------------------------------
// RunConfig validation of the async fields
// ---------------------------------------------------------------------------

fl::RunConfig async_base(fl::ExecPolicy policy) {
  fl::RunConfig cfg;
  cfg.policy = policy;
  cfg.batched = false;
  if (policy == fl::ExecPolicy::kSemiAsync) cfg.semi_async_deadline_s = 1.0;
  return cfg;
}

TEST(AsyncConfigValidationTest, RejectsInconsistentAsyncSettings) {
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kSemiAsync);
    cfg.semi_async_deadline_s = 0.0;  // semi_async needs a deadline
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg;  // sync
    cfg.semi_async_deadline_s = 1.0;  // deadline is semi_async-only
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.max_staleness = -1;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.staleness_decay = 0.0;  // must be in (0, 1]
    EXPECT_THROW(cfg.validate(), Error);
    cfg.staleness_decay = 1.5;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.stale_momentum_decay = 1.5;  // must be in [0, 1]
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kAsync);
    cfg.batched = true;  // the cohort path is barrier-shaped
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    fl::RunConfig cfg = async_base(fl::ExecPolicy::kSemiAsync);
    cfg.eval_every = 2;  // iteration-indexed cadence has no event meaning
    EXPECT_THROW(cfg.validate(), Error);
  }
  EXPECT_NO_THROW(async_base(fl::ExecPolicy::kSemiAsync).validate());
  EXPECT_NO_THROW(async_base(fl::ExecPolicy::kAsync).validate());
}

// ---------------------------------------------------------------------------
// Shared fixture (same shape as parallel_sync_test.cpp)
// ---------------------------------------------------------------------------

struct Fixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(3, 3)};  // 3 edges × 3 workers
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg3;  // three-tier
  fl::RunConfig cfg2;  // two-tier (π = 1, matched period)

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

  fl::RunConfig config_for(const fl::Algorithm& alg) const {
    return alg.three_tier() ? cfg3 : cfg2;
  }

  fl::RunConfig event_config(const fl::Algorithm& alg,
                             fl::ExecPolicy policy) const {
    fl::RunConfig cfg = config_for(alg);
    cfg.policy = policy;
    cfg.batched = false;
    if (policy == fl::ExecPolicy::kSemiAsync) cfg.semi_async_deadline_s = 2.0;
    return cfg;
  }

  net::TimeSimConfig sim_for(const fl::Algorithm& alg) const {
    net::TimeSimConfig sim;
    sim.three_tier = alg.three_tier();
    sim.seed = 9;
    return sim;  // model_params / worker roster auto-completed by the engine
  }

  sim::FaultPlan plan_for(const fl::Algorithm& alg) const {
    sim::FaultConfig fc;
    fc.seed = 42;
    fc.dropout.prob = 0.3;
    fc.straggler.fraction = 0.4;
    fc.straggler.slowdown = 3.0;
    fc.edge_outage.prob = 0.15;
    return sim::FaultPlan(topo, config_for(alg), fc);
  }
};

// Comm totals of every obs::Link, indexed by the enum.
using LinkTotalsByLink = std::array<obs::LinkTotals, 6>;

LinkTotalsByLink snapshot_links() {
  LinkTotalsByLink links;
  for (std::size_t l = 0; l < links.size(); ++l) {
    links[l] = obs::CommAccountant::global().totals(static_cast<obs::Link>(l));
  }
  return links;
}

// Bit-identity of the training outcome: everything except the event-driven
// fields, which fl::Engine does not fill.
void expect_identical_training(const fl::RunResult& a, const fl::RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].iteration, b.curve[i].iteration);
    // EXPECT_EQ, not NEAR: the contract is bit-identity, not tolerance.
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy);
  }
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.mean_participation_rate, b.mean_participation_rate);
  ASSERT_EQ(a.participation.size(), b.participation.size());
  for (std::size_t i = 0; i < a.participation.size(); ++i) {
    EXPECT_EQ(a.participation[i].active_workers,
              b.participation[i].active_workers);
    EXPECT_EQ(a.participation[i].active_edges,
              b.participation[i].active_edges);
  }
  EXPECT_EQ(a.worker_miss_counts, b.worker_miss_counts);
}

// Full identity including the event-driven fields.
void expect_identical_event_run(const fl::RunResult& a, const fl::RunResult& b) {
  expect_identical_training(a, b);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].sim_time, b.curve[i].sim_time);
  }
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.admitted_updates, b.admitted_updates);
  EXPECT_EQ(a.stale_updates, b.stale_updates);
  EXPECT_EQ(a.dropped_updates, b.dropped_updates);
  EXPECT_EQ(a.mean_staleness, b.mean_staleness);
  EXPECT_EQ(a.max_staleness_seen, b.max_staleness_seen);
  EXPECT_EQ(a.overlap_seconds, b.overlap_seconds);
  EXPECT_EQ(a.downloads_applied, b.downloads_applied);
  EXPECT_EQ(a.downloads_superseded, b.downloads_superseded);
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  return names;
}

fl::RunResult run_async(const Fixture& f, fl::Algorithm& alg,
                        fl::RunConfig cfg, std::size_t threads,
                        const sim::FaultPlan* plan,
                        LinkTotalsByLink* links) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::CommAccountant::global().reset();
  cfg.num_threads = threads;
  AsyncEngine engine(f.factory, f.dataset, f.partition, f.topo, cfg,
                     f.sim_for(alg));
  fl::RunResult r = engine.run(alg, plan);
  if (links != nullptr) *links = snapshot_links();
  obs::set_enabled(false);
  return r;
}

// ---------------------------------------------------------------------------
// Sync policy: fl::Engine's run plus a modeled clock
// ---------------------------------------------------------------------------

TEST(AsyncSyncTest, ForwardsToEngineAndStampsModeledTime) {
  Fixture f;
  for (const char* name : {"HierAdMo", "FedAvg"}) {  // three- and two-tier
    for (const bool faults : {false, true}) {
      auto ref_alg = algs::make_algorithm(name);
      auto evt_alg = algs::make_algorithm(name);
      const sim::FaultPlan plan = f.plan_for(*ref_alg);
      fl::Engine engine(f.factory, f.dataset, f.partition, f.topo,
                        f.config_for(*ref_alg));
      const fl::RunResult ref =
          engine.run_with_oracle(*ref_alg, faults ? &plan : nullptr);
      const fl::RunResult evt = run_async(f, *evt_alg, f.config_for(*evt_alg),
                                          1, faults ? &plan : nullptr, nullptr);
      expect_identical_training(ref, evt);
      EXPECT_GT(evt.sim_seconds, 0.0);
      for (std::size_t i = 1; i < evt.curve.size(); ++i) {
        EXPECT_GT(evt.curve[i].sim_time, evt.curve[i - 1].sim_time);
      }
    }
  }
}

// A plan whose only effect is link retries drops nobody — yet every policy
// must still charge the retried uploads to the modeled clock.
TEST(AsyncRetryTest, RetryOnlyPlanSlowsEveryPolicy) {
  Fixture f;
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.link.loss_prob = 0.4;
  fc.link.max_retries = 1000;
  for (const fl::ExecPolicy policy :
       {fl::ExecPolicy::kSync, fl::ExecPolicy::kSemiAsync,
        fl::ExecPolicy::kAsync}) {
    auto clean_alg = algs::make_algorithm("HierAdMo");
    auto retry_alg = algs::make_algorithm("HierAdMo");
    const fl::RunConfig cfg = policy == fl::ExecPolicy::kSync
                                  ? f.config_for(*clean_alg)
                                  : f.event_config(*clean_alg, policy);
    const sim::FaultPlan plan(f.topo, cfg, fc);
    ASSERT_FALSE(plan.is_noop());
    const fl::RunResult clean =
        run_async(f, *clean_alg, cfg, 1, nullptr, nullptr);
    const fl::RunResult retried =
        run_async(f, *retry_alg, cfg, 1, &plan, nullptr);
    EXPECT_GT(retried.sim_seconds, clean.sim_seconds)
        << "policy " << fl::to_string(policy);
  }
}

// The claim the event-driven policies exist for: under a straggler-heavy
// plan (half the fleet 5x slow with jitter, nobody dropped) the sync barrier
// waits for the slowest straggler every interval, while semi_async lets each
// worker pay only its own delays. The gap is a sum of per-interval maxima
// against a maximum of per-worker sums, so it needs a horizon of several
// edge intervals to show: 16 here.
TEST(AsyncStragglerTest, SemiAsyncBeatsSyncBarrierInModeledTime) {
  Fixture f;
  sim::FaultConfig fc;
  fc.seed = 11;
  fc.straggler.fraction = 0.5;
  fc.straggler.slowdown = 5.0;
  fc.straggler.jitter = 0.3;
  auto sync_alg = algs::make_algorithm("HierAdMo");
  auto semi_alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig sync_cfg = f.config_for(*sync_alg);
  sync_cfg.total_iterations = 32;
  fl::RunConfig semi_cfg =
      f.event_config(*semi_alg, fl::ExecPolicy::kSemiAsync);
  semi_cfg.total_iterations = sync_cfg.total_iterations;
  const sim::FaultPlan plan(f.topo, sync_cfg, fc);
  const fl::RunResult sync =
      run_async(f, *sync_alg, sync_cfg, 1, &plan, nullptr);
  const fl::RunResult semi =
      run_async(f, *semi_alg, semi_cfg, 1, &plan, nullptr);
  EXPECT_GT(semi.admitted_updates, 0u);
  EXPECT_LT(semi.sim_seconds, sync.sim_seconds);
}

// ---------------------------------------------------------------------------
// Event-driven policies: seed-deterministic at any thread count
// ---------------------------------------------------------------------------

class AsyncDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AsyncDeterminismTest, SeedDeterministicAcrossThreadCounts) {
  Fixture f;
  for (const fl::ExecPolicy policy :
       {fl::ExecPolicy::kSemiAsync, fl::ExecPolicy::kAsync}) {
    auto alg1 = algs::make_algorithm(GetParam());
    auto alg4 = algs::make_algorithm(GetParam());
    const fl::RunConfig cfg = f.event_config(*alg1, policy);
    const fl::RunResult a = run_async(f, *alg1, cfg, 1, nullptr, nullptr);
    const fl::RunResult b = run_async(f, *alg4, cfg, 4, nullptr, nullptr);
    expect_identical_event_run(a, b);
    EXPECT_GT(a.sim_seconds, 0.0);
    EXPECT_GT(a.admitted_updates, 0u);
  }
}

TEST_P(AsyncDeterminismTest, SeedDeterministicUnderFaults) {
  Fixture f;
  for (const fl::ExecPolicy policy :
       {fl::ExecPolicy::kSemiAsync, fl::ExecPolicy::kAsync}) {
    auto alg1 = algs::make_algorithm(GetParam());
    auto alg4 = algs::make_algorithm(GetParam());
    const sim::FaultPlan plan = f.plan_for(*alg1);
    const fl::RunConfig cfg = f.event_config(*alg1, policy);
    const fl::RunResult a = run_async(f, *alg1, cfg, 1, &plan, nullptr);
    const fl::RunResult b = run_async(f, *alg4, cfg, 4, &plan, nullptr);
    expect_identical_event_run(a, b);
  }
}

std::uint64_t event_run_digest(const fl::RunResult& r,
                               const LinkTotalsByLink& links) {
  golden::Fnv h;
  for (const fl::MetricPoint& p : r.curve) {
    h.add(p.iteration);
    h.add(p.test_loss);
    h.add(p.test_accuracy);
    h.add(p.sim_time);
  }
  h.add(r.final_params);
  h.add(r.worker_miss_counts);
  h.add(r.sim_seconds);
  h.add(r.admitted_updates);
  h.add(r.stale_updates);
  h.add(r.dropped_updates);
  h.add(r.mean_staleness);
  h.add(r.max_staleness_seen);
  h.add(r.overlap_seconds);
  h.add(r.downloads_applied);
  h.add(r.downloads_superseded);
  for (const obs::LinkTotals& t : links) {
    h.add(t.messages);
    h.add(t.logical_bytes);
    h.add(t.saved_bytes);
  }
  return h.value();
}

// Golden digests of every event-driven setting, per algorithm, in the order
// {semi_async, semi_async + adaptive_deadline, async} × {fault-free,
// FaultPlan}. They pin the event path bit for bit: a refactor of src/evt
// that changes any latency draw, queue push order, fold or comm record
// moves a digest.
//
// The portable table (no FMA: HFL_MARCH_NATIVE=OFF, or a host without FMA)
// is authoritative; it holds in Release and RelWithDebInfo builds alike,
// since there is no fused multiply-add to contract into. With FMA enabled
// the compiler's a·b+c contraction choices change with the optimization
// level, so the -march=native table holds only at the default Release flags
// without sanitizers (HFL_GOLDEN_NATIVE_FLAGS, set by tests/CMakeLists.txt)
// and is keyed by ISA, like tests/fault_golden_test.cpp: -march=native code
// differs between AVX-512 and AVX2-only hosts, and HierAdMo's faulted async
// row moves between them. One table was recorded on an AVX-512 host, the
// other on an AVX2+FMA host without AVX-512; other FMA builds skip. A
// failing run prints the measured rows.
using Digests = std::array<std::uint64_t, 6>;

const std::map<std::string, Digests>* golden_digests() {
#if !defined(__FMA__)
  static const std::map<std::string, Digests> table{
      {"HierAdMo",
       {0x4c1e6f61ae3eb182ULL, 0xcf777be7ababfff6ULL,
        0x0abd3608aa27369fULL, 0x6ac2770c050360bfULL,
        0x46ec63177b1b463fULL, 0x68c2cf92ab725785ULL}},
      {"HierAdMo-R",
       {0x48f17ca04cc30123ULL, 0x66bbceefb8ecdad5ULL,
        0x5e4f521cb551da24ULL, 0x1a67e92525db8faeULL,
        0xf742517a5893f763ULL, 0xcadf6c8a40180868ULL}},
      {"HierFAVG",
       {0x9df86772ed01e7dcULL, 0x0c56612529862322ULL,
        0xbd86a1fd7343cb81ULL, 0x4c72beccc4c589dbULL,
        0x5af1036fefc77739ULL, 0x828270c971b52f58ULL}},
      {"CFL",
       {0xefa2fb7f636af3d8ULL, 0xdaaaccea484fdb89ULL,
        0xa4b9006419f5b346ULL, 0xcfc6882a515e9829ULL,
        0x5af1036fefc77739ULL, 0x828270c971b52f58ULL}},
      {"FastSlowMo",
       {0x13620c2a747a7308ULL, 0x12898cc5ade8d5fbULL,
        0x05ad98933ad85221ULL, 0xb33da942d47fc798ULL,
        0x0626965fbbf53ff1ULL, 0x185354203acf2402ULL}},
      {"FedADC",
       {0xfde3e19aba5519efULL, 0xb5a1aa27aff9dec4ULL,
        0x918f4915f2d32aaaULL, 0x1ffd4363cb794b27ULL,
        0x68154cac0fe108b3ULL, 0x48a261ba02f4d86cULL}},
      {"FedMom",
       {0x9510d80458f8d173ULL, 0x312d4daa5a68f023ULL,
        0x4b47ecf9b2442746ULL, 0x52e98c84e290b0ecULL,
        0xfc3b98cb5a1d9e0eULL, 0x4e7c5ab9dcc7abb8ULL}},
      {"SlowMo",
       {0xb8a794b6ed9feae5ULL, 0x349006bfba626746ULL,
        0x13e5690e830121f4ULL, 0x4aa49a29610e97a5ULL,
        0xb9c9c780d404ca8eULL, 0xdf832f30a8857863ULL}},
      {"FedNAG",
       {0x4beeaf78c291893aULL, 0xeefaee5c8b6c6f8fULL,
        0x2bfae89953739513ULL, 0xeb10796a9fb3aa40ULL,
        0xc0860e681a982c67ULL, 0x336e3223d72aadb2ULL}},
      {"Mime",
       {0x638de856260c587fULL, 0xdbece5593b98d6d0ULL,
        0xba63e4c87437791eULL, 0x5648ba14b3173c17ULL,
        0x93423638b0c44775ULL, 0xb78d29ed8c6a7f78ULL}},
      {"FedAvg",
       {0xe15ac02b6e1d6e10ULL, 0x5112c3ad77e51c60ULL,
        0x107b832282163e71ULL, 0xdd57d590ba598b63ULL,
        0xa74047981daf6fc8ULL, 0x1a733a6ca2b310c8ULL}},
      {"MimeLite",
       {0xeee5d522de75494fULL, 0x456435c73643ddd0ULL,
        0xcfd1e4876230923aULL, 0xda7e74c09ee9a07fULL,
        0xbba127989ce12118ULL, 0x10a6271a98452fd0ULL}},
  };
  return &table;
#elif defined(HFL_GOLDEN_NATIVE_FLAGS) && defined(__AVX512F__)
  static const std::map<std::string, Digests> table{
      {"HierAdMo",
       {0x0cc8931e6e96ed14ULL, 0x219e8f1919161c22ULL,
        0x99baaac7ffdcbde6ULL, 0xd1a5e4b7420c7830ULL,
        0xac5e8a3a2edd51c7ULL, 0x0fb1c705a250223aULL}},
      {"HierAdMo-R",
       {0xfc4381127512ad88ULL, 0x8ca19026f6b5bdd0ULL,
        0x2e6cdaa5322be880ULL, 0xa1424284ca208deeULL,
        0x8b57d43937041128ULL, 0x80cba1b6a4100827ULL}},
      {"HierFAVG",
       {0x12e688b408854f53ULL, 0xbecd84cf31e38225ULL,
        0x9400b08877c0e629ULL, 0xa45401ca9d2ae14eULL,
        0x38ff768dc9745968ULL, 0xb2a77ebf525757afULL}},
      {"CFL",
       {0x461e5f5ff6537257ULL, 0xf82e11f9bce33c94ULL,
        0xc14c683818a009f5ULL, 0xa6d4a907a9b25a6eULL,
        0x38ff768dc9745968ULL, 0xb2a77ebf525757afULL}},
      {"FastSlowMo",
       {0xd55aab9d42575630ULL, 0x1746db33fb368652ULL,
        0x134176bb2815c269ULL, 0x5c540d6f1820e3fdULL,
        0x57fa64c2af952f62ULL, 0x9547e2a279b4ea01ULL}},
      {"FedADC",
       {0xe10fda1050a48652ULL, 0x9b6f297902473fe4ULL,
        0x74ae23f16fd11d53ULL, 0x169515d47ad39487ULL,
        0x6f4abbb10986fa4bULL, 0xfbbbf3e6e0206bf8ULL}},
      {"FedMom",
       {0x59f1425147673df9ULL, 0x091642b5fc39e661ULL,
        0x81cd3b8d1cfffaacULL, 0xc6e0e52c9c7f10eaULL,
        0xacbbb4ab9482dcecULL, 0xe72ee7a8e9c2eb7eULL}},
      {"SlowMo",
       {0x642d7831826dbae6ULL, 0xd120313e1ccfd7a5ULL,
        0xfea3b2db5d7274d3ULL, 0xc5ad3864d909b15eULL,
        0x333f4b6bb6185975ULL, 0x449a584da8c0e1f5ULL}},
      {"FedNAG",
       {0x3fa7594b80cd2cd0ULL, 0xa13e6c585a6f226aULL,
        0xefd2aa77347135e1ULL, 0x2bce70958aad0b91ULL,
        0x8a4aa469b5cff728ULL, 0xc0fe9af059e68017ULL}},
      {"Mime",
       {0x3c9fe50205fcd7fbULL, 0x0afdb591fe15bea8ULL,
        0xccbb24f8b2a44172ULL, 0xc6706d9bfa4c8c47ULL,
        0xcea26dbec1955b6dULL, 0xf40fe26c1e926dfdULL}},
      {"FedAvg",
       {0x1959917182810fdeULL, 0xd3bc34e8fc2b61afULL,
        0x0233749a33ce308fULL, 0x8d4e0504fb893440ULL,
        0xe7e2d6a421dda079ULL, 0x506612cfa054ad6bULL}},
      {"MimeLite",
       {0x5a42260050e26e81ULL, 0xd726dff02c6e5781ULL,
        0x3540c52e5d5d26d4ULL, 0x2430edf551a27e5aULL,
        0xb6c3e3ab9c5f3d07ULL, 0xb64cb13a9adcd11aULL}},
  };
  return &table;
#elif defined(HFL_GOLDEN_NATIVE_FLAGS) && defined(__AVX2__)
  static const std::map<std::string, Digests> table{
      {"HierAdMo",
       {0x0cc8931e6e96ed14ULL, 0x219e8f1919161c22ULL,
        0x99baaac7ffdcbde6ULL, 0xd1a5e4b7420c7830ULL,
        0xac5e8a3a2edd51c7ULL, 0x3080bff5528c8042ULL}},
      {"HierAdMo-R",
       {0xfc4381127512ad88ULL, 0x8ca19026f6b5bdd0ULL,
        0x2e6cdaa5322be880ULL, 0xa1424284ca208deeULL,
        0x8b57d43937041128ULL, 0x80cba1b6a4100827ULL}},
      {"HierFAVG",
       {0x12e688b408854f53ULL, 0xbecd84cf31e38225ULL,
        0x9400b08877c0e629ULL, 0xa45401ca9d2ae14eULL,
        0x38ff768dc9745968ULL, 0xb2a77ebf525757afULL}},
      {"CFL",
       {0x461e5f5ff6537257ULL, 0xf82e11f9bce33c94ULL,
        0xc14c683818a009f5ULL, 0xa6d4a907a9b25a6eULL,
        0x38ff768dc9745968ULL, 0xb2a77ebf525757afULL}},
      {"FastSlowMo",
       {0xd55aab9d42575630ULL, 0x1746db33fb368652ULL,
        0x134176bb2815c269ULL, 0x5c540d6f1820e3fdULL,
        0x57fa64c2af952f62ULL, 0x9547e2a279b4ea01ULL}},
      {"FedADC",
       {0xe10fda1050a48652ULL, 0x9b6f297902473fe4ULL,
        0x74ae23f16fd11d53ULL, 0x169515d47ad39487ULL,
        0x6f4abbb10986fa4bULL, 0xfbbbf3e6e0206bf8ULL}},
      {"FedMom",
       {0x59f1425147673df9ULL, 0x091642b5fc39e661ULL,
        0x81cd3b8d1cfffaacULL, 0xc6e0e52c9c7f10eaULL,
        0xacbbb4ab9482dcecULL, 0xe72ee7a8e9c2eb7eULL}},
      {"SlowMo",
       {0x642d7831826dbae6ULL, 0xd120313e1ccfd7a5ULL,
        0xfea3b2db5d7274d3ULL, 0xc5ad3864d909b15eULL,
        0x333f4b6bb6185975ULL, 0x449a584da8c0e1f5ULL}},
      {"FedNAG",
       {0x3fa7594b80cd2cd0ULL, 0xa13e6c585a6f226aULL,
        0xefd2aa77347135e1ULL, 0x2bce70958aad0b91ULL,
        0x8a4aa469b5cff728ULL, 0xc0fe9af059e68017ULL}},
      {"Mime",
       {0x3c9fe50205fcd7fbULL, 0x0afdb591fe15bea8ULL,
        0xccbb24f8b2a44172ULL, 0xc6706d9bfa4c8c47ULL,
        0xcea26dbec1955b6dULL, 0xf40fe26c1e926dfdULL}},
      {"FedAvg",
       {0x1959917182810fdeULL, 0xd3bc34e8fc2b61afULL,
        0x0233749a33ce308fULL, 0x8d4e0504fb893440ULL,
        0xe7e2d6a421dda079ULL, 0x506612cfa054ad6bULL}},
      {"MimeLite",
       {0x5a42260050e26e81ULL, 0xd726dff02c6e5781ULL,
        0x3540c52e5d5d26d4ULL, 0x2430edf551a27e5aULL,
        0xb6c3e3ab9c5f3d07ULL, 0xb64cb13a9adcd11aULL}},
  };
  return &table;
#else
  return nullptr;
#endif
}

TEST_P(AsyncDeterminismTest, MatchesGoldenDigests) {
  const std::map<std::string, Digests>* golden = golden_digests();
  if (golden == nullptr) {
    GTEST_SKIP() << "FMA build without the default Release flags: digests "
                    "are pinned on the portable build";
  }
  Fixture f;
  Digests got{};
  std::size_t i = 0;
  for (const int setting : {0, 1, 2}) {
    for (const bool faults : {false, true}) {
      auto alg = algs::make_algorithm(GetParam());
      fl::RunConfig cfg = f.event_config(
          *alg, setting == 2 ? fl::ExecPolicy::kAsync
                             : fl::ExecPolicy::kSemiAsync);
      cfg.adaptive_deadline = setting == 1;
      const sim::FaultPlan plan = f.plan_for(*alg);
      LinkTotalsByLink links;
      const fl::RunResult r =
          run_async(f, *alg, cfg, 1, faults ? &plan : nullptr, &links);
      got[i++] = event_run_digest(r, links);
    }
  }
  const std::string row = golden::format_row(GetParam(), got);
  const auto it = golden->find(GetParam());
  ASSERT_NE(it, golden->end()) << "no golden row; measured:\n" << row;
  EXPECT_EQ(it->second, got) << "measured:\n" << row;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AsyncDeterminismTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Staleness semantics
// ---------------------------------------------------------------------------

TEST(AsyncStalenessTest, BoundIsEnforcedAndMetricsConsistent) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig cfg = f.event_config(*alg, fl::ExecPolicy::kAsync);
  const fl::RunResult r = run_async(f, *alg, cfg, 1, nullptr, nullptr);

  EXPECT_GT(r.admitted_updates, 0u);
  EXPECT_LE(r.stale_updates, r.admitted_updates);
  EXPECT_LE(static_cast<std::int64_t>(r.max_staleness_seen),
            cfg.max_staleness);
  EXPECT_LE(r.mean_staleness, static_cast<Scalar>(r.max_staleness_seen));
  EXPECT_GE(r.mean_staleness, 0.0);
}

TEST(AsyncStalenessTest, ZeroBoundAdmitsOnlyFreshUpdates) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig cfg = f.event_config(*alg, fl::ExecPolicy::kAsync);
  cfg.max_staleness = 0;
  const fl::RunResult r = run_async(f, *alg, cfg, 1, nullptr, nullptr);
  EXPECT_GT(r.admitted_updates, 0u);
  EXPECT_EQ(r.max_staleness_seen, 0u);
  EXPECT_EQ(r.stale_updates, 0u);
  EXPECT_DOUBLE_EQ(r.mean_staleness, 0.0);
}

TEST(AsyncStalenessTest, EngineRejectsNonSyncPolicy) {
  Fixture f;
  auto alg = algs::make_algorithm("HierAdMo");
  fl::RunConfig cfg = f.event_config(*alg, fl::ExecPolicy::kAsync);
  EXPECT_THROW(fl::Engine(f.factory, f.dataset, f.partition, f.topo, cfg),
               Error);
}

// ---------------------------------------------------------------------------
// stale_sync default policy
// ---------------------------------------------------------------------------

class NullAlg : public fl::Algorithm {
 public:
  std::string name() const override { return "Null"; }
  bool three_tier() const override { return false; }
  void local_step(fl::Context&, fl::WorkerState&) override {}
  void cloud_sync(fl::Context&, std::size_t) override {}
};

TEST(StaleSyncTest, DefaultDecaysMomentumPerStalenessStep) {
  fl::RunConfig cfg;
  cfg.stale_momentum_decay = 0.5;
  fl::Context ctx;
  ctx.cfg = &cfg;
  NullAlg alg;

  fl::WorkerState w;
  w.x = {1.0, 1.0};
  w.y = {3.0, 3.0};
  w.sum_grad = {4.0, 4.0};
  w.sum_y = {4.0, 4.0};
  w.sum_v = {4.0, 4.0};

  alg.stale_sync(ctx, w, 2);  // factor = 0.5^2 = 0.25
  EXPECT_DOUBLE_EQ(w.y[0], 1.0 + 0.25 * 2.0);
  EXPECT_DOUBLE_EQ(w.sum_grad[0], 1.0);
  EXPECT_DOUBLE_EQ(w.sum_y[0], 1.0);
  EXPECT_DOUBLE_EQ(w.sum_v[0], 1.0);

  // decay = 1 is the hold default: a no-op at any staleness.
  cfg.stale_momentum_decay = 1.0;
  fl::WorkerState h;
  h.x = {1.0};
  h.y = {3.0};
  h.sum_y = {2.0};
  alg.stale_sync(ctx, h, 5);
  EXPECT_DOUBLE_EQ(h.y[0], 3.0);
  EXPECT_DOUBLE_EQ(h.sum_y[0], 2.0);
}

}  // namespace
}  // namespace hfl::evt

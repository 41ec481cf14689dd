// Fault & availability subsystem tests: FaultPlan determinism, the no-op
// bit-identity guarantee, identical traces across algorithms, absent-worker
// momentum policies, config validation and the plan shape check every
// consumer runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/errors.h"

#include "src/algs/registry.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/evt/async_engine.h"
#include "src/fl/engine.h"
#include "src/fl/sweep.h"
#include "src/net/time_simulator.h"
#include "src/nn/models.h"
#include "src/sim/fault_plan.h"

namespace hfl::sim {
namespace {

struct SimFixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(2, 2)};
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg;

  explicit SimFixture(std::size_t train_size = 40) {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 2;
    spec.train_size = train_size;
    spec.test_size = 20;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, 4, rng);
    factory = nn::logistic_regression({1, 2, 2}, 2);

    cfg.tau = 2;
    cfg.pi = 2;
    cfg.total_iterations = 12;  // 6 edge intervals, 3 cloud rounds
    cfg.batch_size = 4;
    cfg.seed = 5;
  }

  fl::Engine make_engine() {
    return fl::Engine(factory, dataset, partition, topo, cfg);
  }
};

FaultConfig dropout_config(Scalar prob, std::uint64_t seed = 42) {
  FaultConfig fc;
  fc.seed = seed;
  fc.dropout.prob = prob;
  return fc;
}

// Every worker answer of `plan` over intervals 1..K, laid out [k-1][worker].
struct WorkerTrace {
  std::vector<std::uint8_t> up;
  std::vector<Scalar> slowdown;
  std::vector<std::size_t> attempts;
};

WorkerTrace worker_trace(const FaultPlan& plan, std::size_t intervals,
                         std::size_t workers) {
  WorkerTrace t;
  for (std::size_t k = 1; k <= intervals; ++k) {
    for (std::size_t w = 0; w < workers; ++w) {
      t.up.push_back(plan.worker_available(k, w) ? 1 : 0);
      t.slowdown.push_back(plan.worker_slowdown(k, w));
      t.attempts.push_back(plan.upload_attempts(k, w));
    }
  }
  return t;
}

std::vector<std::uint8_t> edge_trace(const FaultPlan& plan,
                                     std::size_t intervals,
                                     std::size_t edges) {
  std::vector<std::uint8_t> up;
  for (std::size_t k = 1; k <= intervals; ++k) {
    for (std::size_t e = 0; e < edges; ++e) {
      up.push_back(plan.edge_available(k, e) ? 1 : 0);
    }
  }
  return up;
}

// ---- FaultPlan determinism contract ----

TEST(FaultPlanTest, IdenticalInputsGiveBitIdenticalPlans) {
  const fl::Topology topo = fl::Topology::uniform(3, 4);
  fl::RunConfig run;
  run.tau = 5;
  run.pi = 2;
  run.total_iterations = 100;

  FaultConfig fc;
  fc.seed = 9;
  fc.dropout.prob = 0.2;
  fc.churn.p_fail = 0.1;
  fc.churn.p_recover = 0.5;
  fc.straggler.fraction = 0.3;
  fc.straggler.slowdown = 3.0;
  fc.straggler.jitter = 0.2;
  fc.link.loss_prob = 0.2;
  fc.edge_outage.prob = 0.05;

  const FaultPlan a(topo, run, fc);
  const FaultPlan b(topo, run, fc);
  const std::size_t intervals = run.total_iterations / run.tau;
  const WorkerTrace ta = worker_trace(a, intervals, topo.num_workers());
  const WorkerTrace tb = worker_trace(b, intervals, topo.num_workers());
  EXPECT_EQ(ta.up, tb.up);
  EXPECT_EQ(ta.slowdown, tb.slowdown);
  EXPECT_EQ(ta.attempts, tb.attempts);
  EXPECT_EQ(edge_trace(a, intervals, topo.num_edges()),
            edge_trace(b, intervals, topo.num_edges()));
}

TEST(FaultPlanTest, SeedChangesTheTrace) {
  const FaultPlan a(8, 2, dropout_config(0.5, 1));
  const FaultPlan b(8, 2, dropout_config(0.5, 2));
  EXPECT_NE(worker_trace(a, 20, 8).up, worker_trace(b, 20, 8).up);
}

TEST(FaultPlanTest, DropoutRateMatchesProbability) {
  // 200 intervals × 40 workers = 8000 slots.
  const FaultPlan plan(40, 4, dropout_config(0.3));
  const WorkerTrace t = worker_trace(plan, 200, 40);
  std::size_t up = 0;
  for (const std::uint8_t u : t.up) up += u;
  EXPECT_NEAR(static_cast<Scalar>(up) / static_cast<Scalar>(t.up.size()),
              0.7, 0.03);
}

TEST(FaultPlanTest, NoopConfigChangesNothing) {
  SimFixture f;
  FaultConfig fc;  // all models off
  EXPECT_TRUE(fc.is_noop());
  const FaultPlan plan(f.topo, f.cfg, fc);
  EXPECT_TRUE(plan.is_noop());
  const WorkerTrace t = worker_trace(plan, 6, f.topo.num_workers());
  EXPECT_EQ(t.up, std::vector<std::uint8_t>(t.up.size(), 1));
  EXPECT_EQ(t.slowdown, std::vector<Scalar>(t.slowdown.size(), 1.0));
  EXPECT_EQ(t.attempts, std::vector<std::size_t>(t.attempts.size(), 1));
  const std::vector<std::uint8_t> edges = edge_trace(plan, 6, 2);
  EXPECT_EQ(edges, std::vector<std::uint8_t>(edges.size(), 1));
}

TEST(FaultPlanTest, RetryOnlyPlanIsNotNoop) {
  SimFixture f;
  FaultConfig fc;
  fc.link.loss_prob = 0.4;
  fc.link.max_retries = 1000;  // retries, but nobody exhausts the budget
  const FaultPlan plan(f.topo, f.cfg, fc);
  const WorkerTrace t = worker_trace(plan, 6, f.topo.num_workers());
  EXPECT_EQ(t.up, std::vector<std::uint8_t>(t.up.size(), 1));
  EXPECT_GT(*std::max_element(t.attempts.begin(), t.attempts.end()), 1u);
  EXPECT_FALSE(plan.is_noop());
}

TEST(FaultPlanTest, DeadlinePolicyDropsSlowStragglers) {
  FaultConfig fc;
  fc.straggler.fraction = 1.0;
  fc.straggler.slowdown = 2.0;
  fc.straggler.jitter = 0.5;
  fc.straggler.deadline_slowdown = 2.0;
  const FaultPlan plan(20, 2, fc);
  // Jitter pushes some interval factors above the budget; those slots must
  // be marked absent, all others present.
  std::size_t dropped = 0;
  for (std::size_t k = 1; k <= 100; ++k) {
    for (std::size_t w = 0; w < 20; ++w) {
      const bool over = plan.worker_slowdown(k, w) > 2.0;
      EXPECT_EQ(plan.worker_available(k, w), !over);
      dropped += over ? 1 : 0;
    }
  }
  EXPECT_GT(dropped, 0u);
}

TEST(FaultPlanTest, LinkFaultsBoundRetriesAndDropExhaustedWorkers) {
  FaultConfig fc;
  fc.link.loss_prob = 0.5;
  fc.link.max_retries = 3;
  const FaultPlan plan(20, 2, fc);
  bool saw_retry = false, saw_drop = false;
  for (std::size_t k = 1; k <= 200; ++k) {
    for (std::size_t w = 0; w < 20; ++w) {
      const std::size_t a = plan.upload_attempts(k, w);
      EXPECT_GE(a, 1u);
      EXPECT_LE(a, 3u);
      saw_retry |= a > 1;
      saw_drop |= !plan.worker_available(k, w);
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_drop);
}

// ---- Config validation (satellite: misconfigurations throw) ----

TEST(FaultConfigTest, ValidationRejectsBadModels) {
  FaultConfig fc;
  fc.dropout.prob = 1.5;
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.churn.p_fail = 0.2;
  fc.churn.p_recover = 0.0;  // permanent failure: rejected
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.straggler.slowdown = 0.5;  // a speedup is not a straggler
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.link.loss_prob = 1.0;  // every attempt fails: nothing ever uploads
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.link.max_retries = 0;
  EXPECT_THROW(fc.validate(), Error);
  fc = FaultConfig{};
  fc.absent_decay = 2.0;
  EXPECT_THROW(fc.validate(), Error);
}

TEST(RunConfigTest, ValidationRejectsBadConfigs) {
  fl::RunConfig ok;
  EXPECT_NO_THROW(ok.validate());

  fl::RunConfig cfg = ok;
  cfg.tau = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ok;
  cfg.total_iterations = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ok;
  cfg.total_iterations = 25;  // not a multiple of τ·π = 20
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ok;
  cfg.eta = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ok;
  cfg.gamma = 1.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ok;
  cfg.batch_size = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

// Every consumer validates the plan's shape against its topology, no-op
// plans included: a plan sized for a larger fleet answers every query of a
// smaller run in range, so only the shape check can catch it.
std::vector<FaultPlan> mismatched_plans(const SimFixture& f) {
  std::vector<FaultPlan> plans;
  plans.emplace_back(fl::Topology::uniform(2, 3), f.cfg, dropout_config(0.3));
  plans.emplace_back(6, 3, dropout_config(0.3));
  plans.emplace_back(6, 3, FaultConfig{});
  return plans;
}

TEST(ScheduleValidationTest, EngineRejectsMismatchedPlans) {
  SimFixture f;
  fl::Engine engine = f.make_engine();
  auto alg = algs::make_algorithm("HierAdMo");
  for (const FaultPlan& plan : mismatched_plans(f)) {
    EXPECT_THROW(engine.run_with_oracle(*alg, &plan), Error);

    fl::SweepJob job;
    job.make_algorithm = [] { return algs::make_algorithm("HierAdMo"); };
    job.cfg = f.cfg;
    job.make_oracle = [&plan] {
      return std::make_unique<FaultPlan>(plan);
    };
    EXPECT_THROW(fl::run_sweep(f.factory, f.dataset, f.partition, f.topo,
                               {job}),
                 Error);
  }
}

TEST(ScheduleValidationTest, ClockRejectsMismatchedPlans) {
  SimFixture f;
  for (const FaultPlan& plan : mismatched_plans(f)) {
    net::TimeSimConfig sim = net::make_time_sim_config(
        "HierAdMo", true, 10, f.topo.num_workers());
    sim.fault_plan = &plan;
    EXPECT_THROW(net::TimeSimulator(f.topo, f.cfg, sim), Error);
  }
}

TEST(ScheduleValidationTest, AsyncEngineRejectsMismatchedPlansUnderEveryPolicy) {
  SimFixture f;
  for (const fl::ExecPolicy policy :
       {fl::ExecPolicy::kSync, fl::ExecPolicy::kSemiAsync,
        fl::ExecPolicy::kAsync}) {
    fl::RunConfig cfg = f.cfg;
    cfg.policy = policy;
    cfg.batched = false;
    if (policy == fl::ExecPolicy::kSemiAsync) cfg.semi_async_deadline_s = 2.0;
    evt::AsyncEngine engine(f.factory, f.dataset, f.partition, f.topo, cfg,
                            net::TimeSimConfig{});
    for (const FaultPlan& plan : mismatched_plans(f)) {
      auto alg = algs::make_algorithm("HierAdMo");
      EXPECT_THROW(engine.run(*alg, &plan), Error)
          << fl::to_string(policy);
    }
  }
}

// ---- Engine integration ----

TEST(EnginePartialParticipationTest, NoopPlanIsBitIdentical) {
  SimFixture f;
  fl::Engine engine = f.make_engine();
  const FaultPlan noop(f.topo, f.cfg, FaultConfig{});

  auto a1 = algs::make_algorithm("HierAdMo");
  auto a2 = algs::make_algorithm("HierAdMo");
  const fl::RunResult plain = engine.run(*a1);
  const fl::RunResult faulted = engine.run_with_oracle(*a2, &noop);

  ASSERT_EQ(plain.curve.size(), faulted.curve.size());
  for (std::size_t i = 0; i < plain.curve.size(); ++i) {
    EXPECT_EQ(plain.curve[i].iteration, faulted.curve[i].iteration);
    // Bit-identity, not approximate equality: the no-op path must not even
    // renormalize weights.
    EXPECT_EQ(plain.curve[i].test_loss, faulted.curve[i].test_loss);
    EXPECT_EQ(plain.curve[i].test_accuracy, faulted.curve[i].test_accuracy);
  }
  EXPECT_EQ(plain.final_accuracy, faulted.final_accuracy);
  EXPECT_TRUE(faulted.participation.empty());
  EXPECT_DOUBLE_EQ(faulted.mean_participation_rate, 1.0);
}

// A retry-only plan drops nobody but is not a no-op, so it takes the roster
// path. An all-up roster renormalizes every weight back to its full-roster
// value, so every training bit must land where the null path puts it, for
// every registry algorithm, with equal and with unequal (12/12/12/11)
// partitions; only the participation trace is new.
TEST(EnginePartialParticipationTest, RetryOnlyPlanKeepsTrainingBits) {
  FaultConfig fc;
  fc.link.loss_prob = 0.4;
  fc.link.max_retries = 1000;  // retries, but nobody exhausts the budget
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  for (const std::size_t train_size : {std::size_t{40}, std::size_t{47}}) {
    SimFixture f(train_size);
    std::vector<std::size_t> sizes;
    for (const auto& part : f.partition) sizes.push_back(part.size());
    const std::vector<std::size_t> expected =
        train_size == 40 ? std::vector<std::size_t>{10, 10, 10, 10}
                         : std::vector<std::size_t>{12, 12, 12, 11};
    EXPECT_EQ(sizes, expected);
    for (const std::string& name : names) {
      auto plain_alg = algs::make_algorithm(name);
      auto retry_alg = algs::make_algorithm(name);
      fl::RunConfig cfg = f.cfg;
      if (!plain_alg->three_tier()) {
        cfg.tau = cfg.tau * cfg.pi;  // matched period
        cfg.pi = 1;
      }
      fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
      const FaultPlan plan(f.topo, cfg, fc);
      ASSERT_FALSE(plan.is_noop());
      const fl::RunResult plain = engine.run(*plain_alg);
      const fl::RunResult retried = engine.run_with_oracle(*retry_alg, &plan);
      EXPECT_EQ(plain.final_params, retried.final_params)
          << name << " on " << train_size << " samples";
      ASSERT_EQ(plain.curve.size(), retried.curve.size());
      for (std::size_t i = 0; i < plain.curve.size(); ++i) {
        EXPECT_EQ(plain.curve[i].test_loss, retried.curve[i].test_loss);
      }
      EXPECT_TRUE(plain.participation.empty());
      EXPECT_EQ(retried.participation.size(),
                cfg.total_iterations / cfg.tau);
    }
  }
}

TEST(EnginePartialParticipationTest, FaultedRunsAreReproducible) {
  SimFixture f;
  fl::Engine engine = f.make_engine();
  const FaultPlan plan(f.topo, f.cfg, dropout_config(0.3));

  auto a1 = algs::make_algorithm("HierAdMo");
  auto a2 = algs::make_algorithm("HierAdMo");
  const fl::RunResult r1 = engine.run_with_oracle(*a1, &plan);
  const fl::RunResult r2 = engine.run_with_oracle(*a2, &plan);

  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_EQ(r1.curve[i].test_loss, r2.curve[i].test_loss);
    EXPECT_EQ(r1.curve[i].test_accuracy, r2.curve[i].test_accuracy);
  }
  ASSERT_EQ(r1.participation.size(), r2.participation.size());
  for (std::size_t i = 0; i < r1.participation.size(); ++i) {
    EXPECT_EQ(r1.participation[i].active_workers,
              r2.participation[i].active_workers);
  }
  EXPECT_EQ(r1.worker_miss_counts, r2.worker_miss_counts);
}

TEST(EnginePartialParticipationTest, SameTraceAcrossAlgorithms) {
  // The whole point of the plan: every algorithm in a sweep sees the
  // identical participation schedule.
  SimFixture f;
  fl::Engine engine = f.make_engine();
  const FaultPlan plan(f.topo, f.cfg, dropout_config(0.3));

  auto admo = algs::make_algorithm("HierAdMo");
  auto favg = algs::make_algorithm("HierFAVG");
  const fl::RunResult ra = engine.run_with_oracle(*admo, &plan);
  const fl::RunResult rf = engine.run_with_oracle(*favg, &plan);

  ASSERT_EQ(ra.participation.size(), rf.participation.size());
  ASSERT_GT(ra.participation.size(), 0u);
  for (std::size_t i = 0; i < ra.participation.size(); ++i) {
    EXPECT_EQ(ra.participation[i].interval, rf.participation[i].interval);
    EXPECT_EQ(ra.participation[i].active_workers,
              rf.participation[i].active_workers);
    EXPECT_EQ(ra.participation[i].active_edges,
              rf.participation[i].active_edges);
  }
  EXPECT_EQ(ra.worker_miss_counts, rf.worker_miss_counts);
  EXPECT_DOUBLE_EQ(ra.mean_participation_rate, rf.mean_participation_rate);
}

TEST(EnginePartialParticipationTest, ParticipationTraceIsConsistent) {
  SimFixture f;
  fl::Engine engine = f.make_engine();
  const FaultPlan plan(f.topo, f.cfg, dropout_config(0.4, 11));
  auto alg = algs::make_algorithm("HierAdMo");
  const fl::RunResult r = engine.run_with_oracle(*alg, &plan);

  ASSERT_EQ(r.participation.size(), f.cfg.total_iterations / f.cfg.tau);
  std::size_t misses = 0;
  for (const fl::ParticipationPoint& p : r.participation) {
    EXPECT_EQ(p.total_workers, 4u);
    EXPECT_EQ(p.total_edges, 2u);
    EXPECT_LE(p.active_workers, p.total_workers);
    EXPECT_DOUBLE_EQ(
        p.rate, static_cast<Scalar>(p.active_workers) / p.total_workers);
    misses += p.total_workers - p.active_workers;
  }
  std::size_t miss_sum = 0;
  ASSERT_EQ(r.worker_miss_counts.size(), 4u);
  for (const std::size_t m : r.worker_miss_counts) miss_sum += m;
  EXPECT_EQ(miss_sum, misses);
  EXPECT_GT(miss_sum, 0u);  // dropout 0.4 over 24 slots: misses happen
  EXPECT_GT(r.mean_participation_rate, 0.0);
  EXPECT_LT(r.mean_participation_rate, 1.0);
}

TEST(EnginePartialParticipationTest, AbsentPoliciesDiverge) {
  SimFixture f;
  fl::Engine engine = f.make_engine();

  auto run_with_policy = [&](fl::AbsentPolicy policy) {
    FaultConfig fc = dropout_config(0.4, 11);
    fc.absent_policy = policy;
    fc.absent_decay = 0.5;
    const FaultPlan plan(f.topo, f.cfg, fc);
    auto alg = algs::make_algorithm("HierAdMo");
    return engine.run_with_oracle(*alg, &plan);
  };

  const fl::RunResult hold = run_with_policy(fl::AbsentPolicy::kHold);
  const fl::RunResult reset = run_with_policy(fl::AbsentPolicy::kReset);
  const fl::RunResult decay = run_with_policy(fl::AbsentPolicy::kDecay);

  // All policies train to something sane on the same fault trace...
  EXPECT_GT(hold.final_accuracy, 0.0);
  EXPECT_GT(reset.final_accuracy, 0.0);
  EXPECT_GT(decay.final_accuracy, 0.0);
  // ...but handle absent momentum differently, so the trajectories differ.
  EXPECT_NE(hold.curve.back().test_loss, reset.curve.back().test_loss);
}

TEST(EnginePartialParticipationTest, TwoTierAlgorithmsReplayTheSamePlan) {
  SimFixture f;
  f.cfg.pi = 1;
  f.cfg.total_iterations = 12;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);
  const FaultPlan plan(f.topo, f.cfg, dropout_config(0.3));

  auto nag = algs::make_algorithm("FedNAG");
  auto slowmo = algs::make_algorithm("SlowMo");
  const fl::RunResult rn = engine.run_with_oracle(*nag, &plan);
  const fl::RunResult rs = engine.run_with_oracle(*slowmo, &plan);
  ASSERT_EQ(rn.participation.size(), rs.participation.size());
  for (std::size_t i = 0; i < rn.participation.size(); ++i) {
    EXPECT_EQ(rn.participation[i].active_workers,
              rs.participation[i].active_workers);
  }
  EXPECT_GT(rn.final_accuracy, 0.0);
  EXPECT_GT(rs.final_accuracy, 0.0);
}

}  // namespace
}  // namespace hfl::sim

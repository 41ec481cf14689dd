#include "benchmark/selftest.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/probes.h"
#include "benchmark/stats.h"
#include "benchmark/workloads.h"
#include "src/algs/registry.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/evt/async_engine.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"
#include "src/sim/sparse_fault_plan.h"

namespace hfl::bench {

namespace {

struct Tally {
  int checks = 0;
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("SELF-TEST FAILED: %s\n", what.c_str());
    }
  }
};

// ---- Statistics helpers against hand-computed values. ----
void check_stats(Tally& t) {
  t.expect(median({3, 1, 2}) == 2, "median of {3,1,2} is 2");
  t.expect(median({4, 1, 3, 2}) == 2.5, "median of {4,1,3,2} is 2.5");

  // p95 needs ten samples beyond it: 200 distinct values give rank 190 with
  // exactly ten above; 199 give only nine.
  std::vector<double> v200;
  for (int i = 1; i <= 200; ++i) v200.push_back(i);
  const std::optional<double> p = tail_percentile(v200, 0.95);
  t.expect(p.has_value() && *p == 190, "p95 of 1..200 is 190");
  std::vector<double> v199(v200.begin(), v200.end() - 1);
  t.expect(!tail_percentile(v199, 0.95).has_value(),
           "p95 of 199 samples is refused (nine beyond)");
  t.expect(samples_needed(0.95) == 200, "p95 needs 200 samples");
  // Ties at the top: the percentile value itself is the maximum, nothing
  // lies beyond it, so it is refused.
  std::vector<double> tied = v200;
  for (int i = 180; i < 200; ++i) tied[i] = 500;
  t.expect(!tail_percentile(tied, 0.95).has_value(),
           "p95 with a tied top is refused");
}

// ---- Probe transparency. ----

struct Tiny {
  data::TrainTest data;
  fl::Topology topo = fl::Topology::uniform(2, 2);
  data::Partition partition;
  nn::ModelFactory factory = nn::logistic_regression({1, 4, 4}, 3);
};

Tiny make_tiny() {
  Tiny tiny;
  Rng rng(21);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 4, 4};
  spec.num_classes = 3;
  spec.train_size = 240;
  spec.test_size = 60;
  spec.coarse = 2;
  tiny.data = data::make_synthetic(rng, spec);
  tiny.partition =
      data::partition_iid(tiny.data.train, tiny.topo.num_workers(), rng);
  return tiny;
}

fl::RunConfig tiny_config(bool three_tier) {
  fl::RunConfig cfg;
  cfg.total_iterations = 8;
  cfg.tau = 2;
  cfg.pi = three_tier ? 2 : 1;
  cfg.batch_size = 4;
  cfg.seed = 5;
  cfg.num_threads = 2;
  return cfg;
}

sim::FaultConfig tiny_faults() {
  sim::FaultConfig fc;
  fc.seed = 13;
  fc.dropout.prob = 0.25;
  fc.absent_policy = fl::AbsentPolicy::kDecay;
  fc.absent_decay = 0.5;
  return fc;
}

// One engine setting: runs `alg` (already wrapped or not) and returns the
// run digest. `wrap` asks the setting to wrap its provider and oracle too.
using Setting = std::function<std::uint64_t(fl::Algorithm& alg, bool wrap,
                                            bool traced)>;

// An algorithm whose capability flags all differ from fl::Algorithm's
// defaults, so a probe that failed to forward one would report the default.
class NonDefaultFlags final : public fl::Algorithm {
 public:
  std::string name() const override { return "NonDefaultFlags"; }
  bool three_tier() const override { return false; }
  void local_step(fl::Context&, fl::WorkerState&) override {}
  bool local_gradient_prefetchable() const override { return true; }
  const Vec& local_gradient_point(const fl::WorkerState& w) const override {
    return w.y;
  }
  bool edge_sync_reentrant() const override { return false; }
  bool probes_population() const override { return true; }
  void cloud_sync(fl::Context&, std::size_t) override {}
};

void check_forwarding(Tally& t) {
  NonDefaultFlags inner;
  const AlgorithmProbe probe(inner, true);
  fl::WorkerState w;
  t.expect(probe.name() == inner.name() &&
               probe.three_tier() == inner.three_tier() &&
               probe.local_gradient_prefetchable() &&
               !probe.edge_sync_reentrant() && probe.probes_population() &&
               &probe.local_gradient_point(w) == &w.y,
           "AlgorithmProbe forwards every capability flag and "
           "local_gradient_point");
}

void check_transparency(Tally& t) {
  const Tiny tiny = make_tiny();
  const std::size_t params = tiny.factory()->num_params();

  std::vector<std::pair<std::string, Setting>> settings;
  settings.emplace_back(
      "fl::Engine", [&](fl::Algorithm& alg, bool, bool) {
        fl::Engine engine(tiny.factory, tiny.data, tiny.partition, tiny.topo,
                          tiny_config(alg.three_tier()));
        return run_digest(engine.run(alg));
      });
  settings.emplace_back(
      "fl::Engine + full-cohort CohortStore + SparseFaultPlan",
      [&](fl::Algorithm& alg, bool wrap, bool traced) {
        const fl::RunConfig cfg = tiny_config(alg.three_tier());
        fl::Engine engine(tiny.factory, tiny.data, tiny.partition, tiny.topo,
                          cfg);
        pop::CohortStore store(tiny.factory, tiny.data, engine.partition(),
                               tiny.topo, cfg, pop::VirtConfig{});
        const sim::SparseFaultPlan plan(tiny.topo.num_workers(),
                                        tiny.topo.num_edges(), tiny_faults());
        CohortProbe store_probe(store, traced);
        OracleProbe plan_probe(plan, traced);
        engine.set_cohort_provider(wrap ? static_cast<fl::CohortProvider*>(
                                              &store_probe)
                                        : &store);
        const fl::AvailabilityOracle* oracle =
            wrap ? static_cast<const fl::AvailabilityOracle*>(&plan_probe)
                 : &plan;
        return run_digest(engine.run_with_oracle(alg, oracle));
      });
  settings.emplace_back(
      "evt::AsyncEngine sync", [&](fl::Algorithm& alg, bool, bool) {
        evt::AsyncEngine engine(
            tiny.factory, tiny.data, tiny.partition, tiny.topo,
            tiny_config(alg.three_tier()),
            net::make_time_sim_config(alg.name(), alg.three_tier(), params,
                                      tiny.topo.num_workers()));
        return run_digest(engine.run(alg));
      });
  // evt::AsyncEngine has no public cohort-provider hook; its fault input is
  // the dense plan.
  settings.emplace_back(
      "evt::AsyncEngine sync + FaultPlan", [&](fl::Algorithm& alg, bool,
                                               bool) {
        const fl::RunConfig cfg = tiny_config(alg.three_tier());
        const sim::FaultPlan plan(tiny.topo, cfg, tiny_faults());
        evt::AsyncEngine engine(
            tiny.factory, tiny.data, tiny.partition, tiny.topo, cfg,
            net::make_time_sim_config(alg.name(), alg.three_tier(), params,
                                      tiny.topo.num_workers()));
        return run_digest(engine.run(alg, &plan));
      });

  // Every name algs::make_algorithm accepts.
  const std::vector<std::string> names = {
      "HierAdMo", "HierAdMo-R", "HierFAVG", "CFL",  "FastSlowMo", "FedADC",
      "FedMom",   "SlowMo",     "FedNAG",   "Mime", "MimeLite",   "FedAvg"};
  for (const std::string& name : names) {
    for (const auto& [label, run] : settings) {
      const std::uint64_t plain = run(*algs::make_algorithm(name), false,
                                      false);
      for (const bool traced : {false, true}) {
        auto inner = algs::make_algorithm(name);
        AlgorithmProbe probe(*inner, traced);
        const std::uint64_t wrapped = run(probe, true, traced);
        t.expect(wrapped == plain,
                 name + " on " + label + (traced ? " (traced)" : "") +
                     ": wrapped digest differs from unwrapped");
      }
    }
  }
  std::printf("probe transparency: %zu algorithms x %zu settings x "
              "{untraced, traced}\n",
              names.size(), settings.size());
}

}  // namespace

int run_self_test() {
  Tally t;
  check_stats(t);
  check_forwarding(t);
  check_transparency(t);
  std::printf("self-test: %d checks, %d failed\n", t.checks, t.failures);
  return t.failures;
}

}  // namespace hfl::bench

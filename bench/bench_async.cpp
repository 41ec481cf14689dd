// Execution-policy bench: simulated time of sync vs semi_async vs async
// under a straggler-heavy fault plan (the deployment regime the event-driven
// engine exists for).
//
// One workload (HierAdMo, 4 edges × 4 workers, synthetic MNIST), one seeded
// straggler plan (half the fleet ~5× slow), four evt::AsyncEngine runs that
// differ only in RunConfig::policy (+ adaptive_deadline for semi_adapt). The
// sync barrier pays the slowest straggler of the whole fleet every interval;
// the event-driven policies pay each worker only its own delays (plus the
// admission deadline for semi) and additionally hide upload latency behind
// the next interval's compute (the reported overlap column).
// The sync row is fl::Engine::run itself (evt::AsyncEngine forwards the
// sync policy to it), so the baseline is the paper's barrier engine by
// construction.
//
// Writes BENCH_async.json so the numbers ship with the repo. All times are
// modeled seconds (the simulation clock), not host wall-clock; the host is
// only timed to report simulation throughput.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "src/common/errors.h"
#include "src/evt/async_engine.h"
#include "src/sim/fault_plan.h"

namespace {

using namespace hfl;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PolicyRun {
  const char* label = "";
  fl::RunResult result;
  double host_s = 0;
};

}  // namespace

int main() {
  using namespace hfl;

  Rng rng(7);
  const data::TrainTest dataset = data::make_synthetic_mnist(rng);
  const fl::Topology topo = fl::Topology::uniform(4, 4);
  const data::Partition partition =
      data::partition_iid(dataset.train, topo.num_workers(), rng);
  const nn::ModelFactory factory = nn::logistic_regression({1, 28, 28}, 10);
  const std::size_t model_params = factory()->num_params();

  fl::RunConfig cfg;
  cfg.total_iterations = bench::scaled_iters(40, 4);
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.eta = 0.01;
  cfg.gamma = 0.5;
  cfg.gamma_edge = 0.5;
  cfg.batch_size = 16;
  cfg.eval_max_samples = 200;
  cfg.seed = 3;
  cfg.batched = false;  // required by the event-driven policies

  // Straggler-heavy, fully attended: half the fleet runs ~5× slow with
  // per-interval jitter. No dropouts — the point is barrier stall, not
  // missing data.
  sim::FaultConfig fc;
  fc.seed = 11;
  fc.straggler.fraction = 0.5;
  fc.straggler.slowdown = 5.0;
  fc.straggler.jitter = 0.3;
  const sim::FaultPlan plan(topo, cfg, fc);

  const net::TimeSimConfig sim = net::make_time_sim_config(
      "HierAdMo", /*three_tier=*/true, model_params, topo.num_workers());

  // -- the four policies ----------------------------------------------------
  PolicyRun runs[4];
  runs[0].label = "sync";
  runs[1].label = "semi_async";
  runs[2].label = "semi_adapt";
  runs[3].label = "async";
  for (PolicyRun& pr : runs) {
    fl::RunConfig pcfg = cfg;
    const std::string label(pr.label);
    if (label == "semi_async" || label == "semi_adapt") {
      pcfg.policy = fl::ExecPolicy::kSemiAsync;
      // Roughly two normal-speed intervals: fast workers are admitted
      // together, stragglers land in later rounds instead of stalling them.
      pcfg.semi_async_deadline_s = 0.5;
      // The adaptive variant retunes each aggregator's deadline against the
      // arrival spread it actually observes.
      pcfg.adaptive_deadline = label == "semi_adapt";
    } else if (label == "async") {
      pcfg.policy = fl::ExecPolicy::kAsync;
    }
    evt::AsyncEngine engine(factory, dataset, partition, topo, pcfg, sim);
    auto alg = algs::make_algorithm("HierAdMo");
    const auto t0 = std::chrono::steady_clock::now();
    pr.result = engine.run(*alg, &plan);
    pr.host_s = seconds_since(t0);
  }

  bench::print_heading("execution policies under a straggler-heavy plan");
  std::printf("%-12s%-12s%-12s%-10s%-10s%-10s%-10s%-10s\n", "policy",
              "sim-time", "final-acc", "admitted", "stale", "dropped",
              "overlap-s", "host-s");
  for (const PolicyRun& pr : runs) {
    std::printf("%-12s%-12.1f%-12.3f%-10zu%-10zu%-10zu%-10.1f%-10.2f\n",
                pr.label, pr.result.sim_seconds, pr.result.final_accuracy,
                pr.result.admitted_updates, pr.result.stale_updates,
                pr.result.dropped_updates, pr.result.overlap_seconds,
                pr.host_s);
  }

  const double semi_speedup =
      runs[0].result.sim_seconds / runs[1].result.sim_seconds;
  const double adapt_speedup =
      runs[0].result.sim_seconds / runs[2].result.sim_seconds;
  const double async_speedup =
      runs[0].result.sim_seconds / runs[3].result.sim_seconds;
  std::printf("\nsimulated-time speedup over sync: semi_async %.2fx, "
              "semi_adapt %.2fx, async %.2fx\n",
              semi_speedup, adapt_speedup, async_speedup);

  // The claim this bench exists to check: dodging the straggler barrier
  // makes the modeled run finish earlier.
  HFL_CHECK(runs[1].result.sim_seconds < runs[0].result.sim_seconds,
            "semi_async did not beat the sync barrier in simulated time");

  std::FILE* json = std::fopen("BENCH_async.json", "w");
  HFL_CHECK(json != nullptr, "cannot open BENCH_async.json");
  std::fprintf(json, "{\n  \"topology\": \"4 edges x 4 workers\",\n");
  std::fprintf(json,
               "  \"config\": {\"T\": %zu, \"tau\": %zu, \"pi\": %zu, "
               "\"deadline_s\": 0.5, \"max_staleness\": %lld},\n",
               cfg.total_iterations, cfg.tau, cfg.pi,
               static_cast<long long>(cfg.max_staleness));
  std::fprintf(json,
               "  \"faults\": {\"straggler_fraction\": 0.5, "
               "\"slowdown\": 5.0, \"jitter\": 0.3},\n");
  std::fprintf(json, "  \"policies\": [\n");
  for (std::size_t i = 0; i < 4; ++i) {
    const fl::RunResult& r = runs[i].result;
    std::fprintf(json,
                 "    {\"policy\": \"%s\", \"sim_seconds\": %.3f, "
                 "\"final_accuracy\": %.4f, \"admitted\": %zu, "
                 "\"stale\": %zu, \"dropped\": %zu, "
                 "\"mean_staleness\": %.3f, \"max_staleness\": %zu, "
                 "\"overlap_seconds\": %.3f, \"downloads_applied\": %zu, "
                 "\"downloads_superseded\": %zu, "
                 "\"host_seconds\": %.3f}%s\n",
                 runs[i].label, r.sim_seconds, r.final_accuracy,
                 r.admitted_updates, r.stale_updates, r.dropped_updates,
                 r.mean_staleness, r.max_staleness_seen, r.overlap_seconds,
                 r.downloads_applied, r.downloads_superseded, runs[i].host_s,
                 i + 1 < 4 ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"speedup_vs_sync\": {\"semi_async\": %.3f, "
               "\"semi_adaptive\": %.3f, \"async\": %.3f},\n",
               semi_speedup, adapt_speedup, async_speedup);
  std::fprintf(json, "  \"sync_bit_identical_to_engine\": true\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_async.json\n");
  return 0;
}

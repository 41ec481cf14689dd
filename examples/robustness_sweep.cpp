// Robustness sweep: how do the paper's algorithms degrade when workers drop
// out?
//
// The paper's experiments assume full participation. This sweep replays the
// same seeded dropout trace (sim::FaultPlan) for every algorithm at each
// dropout level 0–40%, so differences in the resulting accuracy are due to
// the algorithms, not to luck in who dropped. Three-tier algorithms
// (HierAdMo, HierFAVG) and two-tier ones (FedNAG, SlowMo) run with matched
// aggregation periods (τ2 = τ·π), the paper's fairness convention.
//
// All 20 (algorithm × dropout) runs are independent, so they dispatch
// concurrently through fl::run_sweep; results come back in job order and are
// bit-identical to the serial loop this example used to be.
//
// Emits results/fig_robustness_results.csv (one row per algorithm × dropout
// level) and results/fig_robustness_participation.csv (per-interval
// participation traces at the harshest level).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/csv.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/sweep.h"
#include "src/nn/models.h"
#include "src/sim/fault_plan.h"

int main() {
  using namespace hfl;

  Rng rng(7);
  const data::TrainTest dataset = data::make_synthetic_mnist(rng);
  const fl::Topology topo = fl::Topology::uniform(2, 2);
  const data::Partition partition = data::partition_by_class(
      dataset.train, topo.num_workers(), 5, rng);

  fl::RunConfig cfg3;
  cfg3.total_iterations = 400;
  cfg3.tau = 10;
  cfg3.pi = 2;
  cfg3.eta = 0.01;
  cfg3.gamma = 0.5;
  cfg3.gamma_edge = 0.5;
  cfg3.batch_size = 16;
  cfg3.eval_max_samples = 300;
  cfg3.seed = 3;

  fl::RunConfig cfg2 = cfg3;
  cfg2.tau = 20;  // matched to τ·π
  cfg2.pi = 1;

  const std::vector<std::string> algorithms = {"HierAdMo", "HierFAVG",
                                               "FedNAG", "SlowMo"};
  const std::vector<Scalar> dropout_levels = {0.0, 0.1, 0.2, 0.3, 0.4};
  const Scalar target_accuracy = 0.6;

  // One fault trace per dropout level, shared by every algorithm: each job
  // builds its own plan from the same config (a plan's replay cursors are
  // per instance, so concurrent jobs must not share one). The planned
  // participation counts the slots over the job's tier horizon (τ vs τ·π
  // intervals).
  struct JobMeta {
    std::string name;
    bool three_tier;
    Scalar dropout;
    Scalar planned_up;  // share of (interval, worker) slots the plan keeps up
  };
  const auto planned_up = [&](const sim::FaultConfig& fc,
                              const fl::RunConfig& cfg) {
    const sim::FaultPlan plan(topo, cfg, fc);
    const std::size_t intervals = cfg.total_iterations / cfg.tau;
    std::size_t up = 0;
    for (std::size_t k = 1; k <= intervals; ++k) {
      for (std::size_t w = 0; w < topo.num_workers(); ++w) {
        up += plan.worker_available(k, w) ? 1 : 0;
      }
    }
    return static_cast<Scalar>(up) /
           static_cast<Scalar>(intervals * topo.num_workers());
  };
  std::vector<JobMeta> meta;
  std::vector<fl::SweepJob> jobs;
  for (const Scalar dropout : dropout_levels) {
    sim::FaultConfig fc;
    fc.seed = 42;
    fc.dropout.prob = dropout;
    for (const std::string& name : algorithms) {
      const bool three = algs::make_algorithm(name)->three_tier();
      fl::SweepJob job;
      job.make_algorithm = [name] { return algs::make_algorithm(name); };
      job.cfg = three ? cfg3 : cfg2;
      job.make_oracle = [&topo, fc] {
        return std::make_unique<sim::FaultPlan>(topo.num_workers(),
                                                topo.num_edges(), fc);
      };
      job.label = name;
      meta.push_back({name, three, dropout, planned_up(fc, job.cfg)});
      jobs.push_back(std::move(job));
    }
  }

  const nn::ModelFactory factory = nn::logistic_regression({1, 28, 28}, 10);
  std::vector<fl::SweepResult> results =
      fl::run_sweep(factory, dataset, partition, topo, jobs);

  std::filesystem::create_directories("results");
  CsvWriter out("results/fig_robustness_results.csv");
  out.write_header({"algorithm", "three_tier", "dropout",
                    "planned_participation", "mean_participation_rate",
                    "final_accuracy", "best_accuracy", "iters_to_60"});

  std::vector<fl::RunResult> harshest;  // participation traces at 40%
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobMeta& m = meta[i];
    fl::RunResult& r = results[i].result;
    const std::size_t iters = r.iterations_to_accuracy(target_accuracy);
    out.write_row(
        {m.name, m.three_tier ? "1" : "0", CsvWriter::format_scalar(m.dropout),
         CsvWriter::format_scalar(m.planned_up),
         CsvWriter::format_scalar(r.mean_participation_rate),
         CsvWriter::format_scalar(r.final_accuracy),
         CsvWriter::format_scalar(r.best_accuracy()),
         iters == hfl::kNeverIndex ? "never" : std::to_string(iters)});
    std::printf("dropout %.0f%%  %-10s -> %.2f%% (participation %.2f)\n",
                100 * m.dropout, m.name.c_str(), 100 * r.final_accuracy,
                r.mean_participation_rate);
    if (m.dropout == dropout_levels.back()) {
      r.algorithm = m.name;
      harshest.push_back(std::move(r));
    }
  }

  fl::write_participation_csv(harshest,
                              "results/fig_robustness_participation.csv");
  std::printf(
      "\nwrote results/fig_robustness_results.csv and "
      "results/fig_robustness_participation.csv\n");
  return 0;
}

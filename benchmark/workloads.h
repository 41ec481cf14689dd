// The benchmark's four workloads and one repetition ("rep") of each.
//
// Every rep rebuilds its inputs from the seed (dataset, partition, fault
// plan, engine), runs HierAdMo once through the public engine API with the
// probes of probes.h attached, and returns what the metrics are computed
// from. Nothing here prints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/probes.h"
#include "src/fl/metrics.h"

namespace hfl::bench {

struct Workload {
  std::string name;
  // Test loss the time-to-target metrics are measured against. The
  // reference run first reaches it between 30 % and 70 % of its horizon.
  double target_loss = 0;
  // Local-step batch size (samples per local_step call).
  std::size_t batch_size = 0;
  // Runs on evt::AsyncEngine (event-driven policy) rather than fl::Engine.
  bool event_driven = false;
};

// The four workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
// Throws hfl::Error for an unknown name.
const Workload& find_workload(const std::string& name);

// Host seconds per set-up stage of one rep.
struct SetupTimes {
  double synth_s = 0;       // dataset synthesis            (data)
  double partition_s = 0;   // partition across workers     (data)
  double pop_build_s = 0;   // cohort store construction    (pop)
  double plan_build_s = 0;  // fault plan construction      (sim)
  double engine_s = 0;      // engine construction          (fl)
  double total_s = 0;       // the whole set-up, one clock
};

// Every workload runs its engine on one thread (README.md, "One thread").
inline constexpr std::size_t kEngineThreads = 1;

// Seed of the reference run: the rep whose training curve the convergence
// metrics are read from, whatever --seed is (README.md, "Convergence").
inline constexpr std::uint64_t kReferenceSeed = 1;

struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;  // time every hook (obs must be enabled by the caller)
  bool smoke = false;   // ~1/20 horizon, pop_1m at 10k workers
  bool setup_only = false;  // build the inputs, time them, skip the run
};

struct RepResult {
  fl::RunResult result;
  SetupTimes setup;
  double run_s = 0;          // host seconds of the engine run
  double post_s = 0;         // modeled-clock replay after the run
  // Host time between consecutive cloud_sync entries, ms.
  std::vector<double> round_ms;
  // Cloud rounds until the test loss first reaches the workload's target,
  // interpolated between the two evaluations around the crossing; empty
  // when the run never gets there. On the event engine a round is one
  // cloud model version.
  std::optional<double> rounds_to_target;
  // Modeled seconds for the whole horizon and to the target, where the
  // workload has a modeled clock (0 otherwise, and 0 when never reached).
  double modeled_s = 0;
  double time_to_target_s = 0;
  std::uint64_t digest = 0;
  // pop_1m only: largest number of simultaneously materialized workers and
  // the cohort size it must not exceed.
  std::size_t peak_materialized = 0;
  std::size_t cohort_size = 0;
  // Probe readings (timings only when traced).
  AlgorithmProbe::Totals alg;
  HookStats pop_sample, pop_turnover, oracle;
};

RepResult run_rep(const Workload& w, const RepOptions& opt);

// FNV-1a-64 over the curve (iteration, loss, accuracy, sim_time), the final
// parameters, the per-worker miss counts and the admitted/stale/dropped
// update counts: equal digests mean bit-identical runs.
std::uint64_t run_digest(const fl::RunResult& r);

}  // namespace hfl::bench

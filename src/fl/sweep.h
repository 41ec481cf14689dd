// Concurrent experiment sweeps.
//
// A sweep runs many independent (algorithm × config × fault-oracle) jobs
// against one shared dataset/partition/topology. Jobs are embarrassingly
// parallel — each constructs its own Engine (own thread pool, own eval
// models, state rebuilt from the job's seed) — so the sweep dispatches them
// on an outer thread pool and collects results indexed by job. Because every
// engine rebuilds from its seed and the engine's own sync tier is
// deterministic for any thread count, a sweep's results are bit-identical to
// running the same jobs one at a time in a loop (asserted by
// tests/parallel_sync_test.cpp).
//
// The two knobs compose: `concurrency` bounds how many jobs run at once and
// `threads_per_run` sizes each job's engine pool. The default (all cores
// across jobs, one thread per engine) is right for sweeps with at least as
// many jobs as cores; flip the balance for a sweep of a few large runs.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fl/engine.h"

namespace hfl::fl {

struct SweepJob {
  // Called once, inside the job, to build the algorithm instance (algorithms
  // are stateful, so concurrent jobs must not share one).
  std::function<std::unique_ptr<Algorithm>()> make_algorithm;
  RunConfig cfg;
  // Optional: called once, inside the job, to build its fault oracle. An
  // oracle replays its trace through per-instance cursors, serial-only, so
  // concurrent jobs must not share one. Empty = full participation.
  std::function<std::unique_ptr<AvailabilityOracle>()> make_oracle;
  // Optional tag carried into the result row (algorithm name when empty).
  std::string label;
};

struct SweepResult {
  std::string label;
  RunResult result;
};

struct SweepOptions {
  std::size_t concurrency = 0;      // concurrent jobs; 0 = hardware threads
  std::size_t threads_per_run = 1;  // engine pool threads per job
};

// Runs every job and returns results in job order. The engine copies the
// partition and topology; `factory` and `data` must stay alive for the
// duration of the call. Job cfg.num_threads is overridden by
// opts.threads_per_run.
std::vector<SweepResult> run_sweep(const nn::ModelFactory& factory,
                                   const data::TrainTest& data,
                                   const data::Partition& partition,
                                   const Topology& topo,
                                   const std::vector<SweepJob>& jobs,
                                   const SweepOptions& opts = {});

}  // namespace hfl::fl

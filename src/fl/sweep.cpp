#include "src/fl/sweep.h"

#include <algorithm>

#include "src/common/errors.h"
#include "src/common/thread_pool.h"

namespace hfl::fl {

std::vector<SweepResult> run_sweep(const nn::ModelFactory& factory,
                                   const data::TrainTest& data,
                                   const data::Partition& partition,
                                   const Topology& topo,
                                   const std::vector<SweepJob>& jobs,
                                   const SweepOptions& opts) {
  std::vector<SweepResult> results(jobs.size());
  if (jobs.empty()) return results;
  for (const SweepJob& job : jobs) {
    HFL_CHECK(static_cast<bool>(job.make_algorithm),
              "sweep job needs an algorithm factory");
  }

  // Cap the outer pool at the job count: idle sweep threads would only sit
  // on the queue. parallel_for's static partitioning assigns jobs to slots
  // deterministically, and every job writes only its own result row.
  const std::size_t want =
      opts.concurrency == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : opts.concurrency;
  ThreadPool outer(std::min(want, jobs.size()));
  outer.parallel_for(jobs.size(), [&](std::size_t i) {
    const SweepJob& job = jobs[i];
    RunConfig cfg = job.cfg;
    cfg.num_threads = std::max<std::size_t>(1, opts.threads_per_run);
    std::unique_ptr<Algorithm> alg = job.make_algorithm();
    const std::unique_ptr<AvailabilityOracle> oracle =
        job.make_oracle ? job.make_oracle() : nullptr;
    Engine engine(factory, data, partition, topo, cfg);
    results[i].label = job.label.empty() ? alg->name() : job.label;
    results[i].result = engine.run_with_oracle(*alg, oracle.get());
  });
  return results;
}

}  // namespace hfl::fl

// hfl_bench — the repository benchmark (README.md in this directory).
//
//   hfl_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--git-rev REV]
//   hfl_bench --self-test
//
// One process runs one workload. It repeats set-up + run ("reps") for about
// --seconds, each rep rebuilding its inputs from --seed; rep 1 is a warm-up
// that trains on the fixed reference inputs the convergence metrics come
// from. --trace 0 reports the end-to-end metrics over the untraced reps;
// --trace 1 adds one traced rep at the end and reports the per-layer
// metrics from it.
// The last line of standard output is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    V, "unit": U}, ...}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/probes.h"
#include "benchmark/selftest.h"
#include "benchmark/stats.h"
#include "benchmark/workloads.h"
#include "src/common/errors.h"
#include "src/fl/config.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace {

using namespace hfl;
using namespace hfl::bench;

// Host time a run may spend before it stops starting reps, whatever
// --seconds asks for (a run must end within three minutes).
constexpr double kHardCapSeconds = 150.0;

// Rep 1 warms the process up (first-touch page faults, allocator pools, the
// host's response to sustained load); its timings do not count, only its
// set-up time and its training curve, which is the reference run's.
constexpr std::size_t kWarmupReps = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  std::string git_rev = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Output checks: each counts one attempt; a failure is printed and counted.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double elapsed_s(std::uint64_t since) {
  return static_cast<double>(now_ns() - since) * 1e-9;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      HFL_CHECK(i + 1 < argc, "missing value after " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
      HFL_CHECK(o.seconds >= 0, "--seconds must be non-negative");
    } else if (a == "--trace") {
      const std::string t = value();
      HFL_CHECK(t == "0" || t == "1", "--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--git-rev") {
      o.git_rev = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      HFL_CHECK(false, "unknown argument '" + a + "'");
    }
  }
  return o;
}

void print_provenance(const Options& o, std::size_t nproc) {
  std::printf("# host: nproc=%zu threads=%zu compiler=%s build=%s "
              "march_native=%s\n",
              nproc, kEngineThreads, HFL_BENCH_COMPILER, HFL_BENCH_BUILD_TYPE,
              HFL_BENCH_MARCH_NATIVE);
  std::printf("# cxx_flags: %s\n", HFL_BENCH_CXX_FLAGS);
  std::printf("# rev: %s seed=%llu workload=%s seconds=%g trace=%d%s\n",
              o.git_rev.c_str(), static_cast<unsigned long long>(o.seed),
              o.workload.c_str(), o.seconds, o.trace ? 1 : 0,
              o.smoke ? " smoke" : "");
  if (nproc < 4) {
    std::printf("# WARNING: nproc=%zu < 4: no parallel-speedup claim may "
                "rest on numbers from this host\n",
                nproc);
  }
}

void print_json(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    HFL_CHECK(std::isfinite(metrics[i].value),
              "metric " + metrics[i].name + " is not finite");
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Cloud rounds the reference run took to reach its target; a run that never
// got there reports its whole horizon (and fails the target check).
double reference_rounds(const RepResult& reference) {
  return reference.rounds_to_target.value_or(
      static_cast<double>(reference.result.curve.size() - 1));
}

// ---- End-to-end metrics (--trace 0). ----
// Timings come from the timed reps (every rep after the warm-up); set-up
// from every set-up, the warm-up's included, since users pay it once per
// process too. Convergence comes from the reference run (the warm-up).
std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<RepResult>& reps,
                               const std::vector<double>& setup_s) {
  std::vector<double> rate, rounds;
  for (std::size_t i = kWarmupReps; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    rate.push_back(
        static_cast<double>(r.alg.local_step.calls * w.batch_size) / r.run_s);
    rounds.insert(rounds.end(), r.round_ms.begin(), r.round_ms.end());
  }
  // The round tail is printed with its sample count but not gated: on a
  // shared host it spreads past any bound the benchmark may set (README.md).
  const std::optional<double> p90 = tail_percentile(rounds, 0.90);
  std::printf("timed reps %zu, pooled rounds %zu, set-ups %zu; round p90 ",
              reps.size() - kWarmupReps, rounds.size(), setup_s.size());
  if (p90) {
    std::printf("%.3f ms\n", *p90);
  } else {
    std::printf("n/a (needs %zu rounds)\n", samples_needed(0.90));
  }
  const RepResult& reference = reps.front();
  return {
      {"samples_per_s", median(rate), "samples/s"},
      {"round_ms_p50", median(rounds), "ms"},
      {"setup_s", median(setup_s), "s"},
      {"rounds_to_target", reference_rounds(reference), "rounds"},
      {"best_accuracy", reference.result.best_accuracy(), "fraction"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

// ---- Traced rep: the phase table and the per-layer metrics. ----

struct SpanTotal {
  std::uint64_t count = 0;
  double ms = 0;
};

std::map<std::string, SpanTotal> span_totals() {
  std::map<std::string, SpanTotal> totals;
  for (const obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
    SpanTotal& t = totals[e.name];
    ++t.count;
    t.ms += static_cast<double>(e.dur_ns) * 1e-6;
  }
  return totals;
}

double ms(const HookStats& h) { return static_cast<double>(h.busy_ns) * 1e-6; }

double counter(const std::string& name, const std::string& labels = "") {
  return static_cast<double>(
      obs::Registry::global().counter(name, labels).value());
}

double gauge(const std::string& name) {
  return obs::Registry::global().gauge(name).value();
}

double link_mb(obs::Link a, obs::Link b) {
  const obs::CommAccountant& comm = obs::CommAccountant::global();
  return static_cast<double>(comm.totals(a).logical_bytes +
                             comm.totals(b).logical_bytes) /
         (1024.0 * 1024.0);
}

double share_pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

std::vector<Metric> per_layer(const RepResult& r, double rep_wall_s,
                              double untraced_run_s, bool evt_engine,
                              Checks& checks) {
  const std::map<std::string, SpanTotal> spans = span_totals();
  const auto span = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotal{} : it->second;
  };
  const double run_ms = r.run_s * 1e3;
  const double setup_ms = r.setup.total_s * 1e3;
  const SpanTotal local = span("local_steps");
  const SpanTotal edge = span("edge_sync");
  const SpanTotal cloud = span("cloud_sync");
  const SpanTotal eval = span("evaluate");
  const SpanTotal run_span = span("run:" + r.result.algorithm);
  const AlgorithmProbe::Totals& a = r.alg;

  // Disjoint rows of the traced rep; whatever they miss is "unattributed".
  struct Row {
    std::string name;
    std::uint64_t count;
    double ms;
  };
  std::vector<Row> rows = {
      {"data.synth", 1, r.setup.synth_s * 1e3},
      {"data.partition", 1, r.setup.partition_s * 1e3},
      {"pop.build", r.setup.pop_build_s > 0 ? 1u : 0u,
       r.setup.pop_build_s * 1e3},
      {"sim.plan_build", r.setup.plan_build_s > 0 ? 1u : 0u,
       r.setup.plan_build_s * 1e3},
      {"fl.engine_build", 1, r.setup.engine_s * 1e3},
      {"fl.local_phase", local.count, local.ms},
      {"fl.eval", eval.count, eval.ms},
  };
  double evt_self_ms = 0;
  if (evt_engine) {
    // The event engine emits spans only for local steps and evaluation; its
    // aggregation hooks are timed by the algorithm probe and the rest of the
    // run span is the event loop itself.
    rows.push_back({"algs.edge_sync", a.edge_sync.calls, ms(a.edge_sync)});
    rows.push_back({"algs.cloud_sync", a.cloud_sync.calls, ms(a.cloud_sync)});
    rows.push_back({"algs.stale_sync", a.stale_sync.calls, ms(a.stale_sync)});
    evt_self_ms = run_span.ms - local.ms - eval.ms - ms(a.edge_sync) -
                  ms(a.cloud_sync) - ms(a.stale_sync) - ms(a.absent_sync) -
                  ms(a.init_worker);
  } else {
    rows.push_back({"fl.edge_phase", edge.count, edge.ms});
    rows.push_back({"fl.cloud_phase", cloud.count, cloud.ms});
    rows.push_back({"pop.sample", r.pop_sample.calls, ms(r.pop_sample)});
    rows.push_back({"pop.turnover", r.pop_turnover.calls, ms(r.pop_turnover)});
    rows.push_back({"sim.oracle", r.oracle.calls, ms(r.oracle)});
  }
  rows.push_back({"algs.absent_sync", a.absent_sync.calls, ms(a.absent_sync)});
  rows.push_back({"algs.init_worker", a.init_worker.calls, ms(a.init_worker)});
  if (evt_engine) rows.push_back({"evt.self", 1, evt_self_ms});
  rows.push_back({"net.clock_replay", 1, r.post_s * 1e3});
  double named_ms = 0;
  for (const Row& row : rows) named_ms += row.ms;
  const double wall_ms = rep_wall_s * 1e3;
  const double unattributed_ms = wall_ms - named_ms;
  rows.push_back({"unattributed", 0, unattributed_ms});

  std::printf("\ntraced rep: %.1f ms wall (set-up %.1f ms, run %.1f ms)\n",
              wall_ms, setup_ms, run_ms);
  std::printf("  %-20s %10s %12s %8s\n", "row", "count", "total_ms", "%rep");
  double sum_ms = 0;
  for (const Row& row : rows) {
    sum_ms += row.ms;
    std::printf("  %-20s %10llu %12.3f %7.2f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.ms,
                share_pct(row.ms, wall_ms));
  }
  std::printf("  %-20s %10s %12.3f %7.2f%%\n", "sum", "", sum_ms,
              share_pct(sum_ms, wall_ms));
  // Rows must be disjoint: overlapping rows would drive the remainder
  // negative (allow clock-read jitter of 0.5 %).
  checks.expect(unattributed_ms >= -0.005 * wall_ms,
                "traced table rows overlap (unattributed < 0)");

  const double gemm_gflop = (counter("gemm.flops") +
                             counter("gemm.batched_flops") +
                             counter("gemm.mixed_flops")) *
                            1e-9;
  const double compute_s = (local.ms + eval.ms) * 1e-3;
  double active = 0, slots = 0;
  for (const fl::ParticipationPoint& p : r.result.participation) {
    active += static_cast<double>(p.active_workers);
    slots += static_cast<double>(r.cohort_size > 0 ? r.cohort_size
                                                   : p.total_workers);
  }
  const double restores = counter("pop.restores");
  const double fresh = counter("pop.materializations");
  const std::string policy =
      std::string("policy=") + fl::to_string(fl::ExecPolicy::kSemiAsync);
  const double arrived = counter("evt.uploads.arrived", policy);
  const double admitted = counter("evt.updates.admitted", policy);
  constexpr double kMiB = 1024.0 * 1024.0;

  return {
      // fl
      {"fl.run_ms", run_ms, "ms"},
      {"fl.local_phase_ms", local.ms, "ms"},
      {"fl.edge_phase_pct", share_pct(edge.ms, run_ms), "%"},
      {"fl.cloud_phase_pct", share_pct(cloud.ms, run_ms), "%"},
      {"fl.eval_ms", eval.ms, "ms"},
      {"fl.eval_calls", static_cast<double>(eval.count), "count"},
      {"fl.cohort.fused_grads", counter("engine.cohort.fused_grads"),
       "count"},
      {"fl.cohort.fallback_grads", counter("engine.cohort.fallback_grads"),
       "count"},
      {"fl.comm.worker_edge_mb",
       link_mb(obs::Link::kWorkerToEdge, obs::Link::kEdgeToWorker), "MiB"},
      {"fl.comm.edge_cloud_mb",
       link_mb(obs::Link::kEdgeToCloud, obs::Link::kCloudToEdge), "MiB"},
      {"fl.sync.absent_share", slots > 0 ? 1.0 - active / slots : 0.0,
       "fraction"},
      {"fl.engine_build_ms", r.setup.engine_s * 1e3, "ms"},
      {"fl.unattributed_ms", unattributed_ms, "ms"},
      // algs
      {"algs.local_step.calls", static_cast<double>(a.local_step.calls),
       "count"},
      {"algs.local_step.busy_ms", ms(a.local_step), "ms"},
      {"algs.local_step.wall_ms",
       static_cast<double>(a.local_step_wall_ns) * 1e-6, "ms"},
      {"algs.edge_sync.calls", static_cast<double>(a.edge_sync.calls),
       "count"},
      {"algs.edge_sync.busy_ms", ms(a.edge_sync), "ms"},
      {"algs.cloud_sync.calls", static_cast<double>(a.cloud_sync.calls),
       "count"},
      {"algs.cloud_sync.busy_ms", ms(a.cloud_sync), "ms"},
      {"algs.absent_sync.calls", static_cast<double>(a.absent_sync.calls),
       "count"},
      {"algs.stale_sync.calls", static_cast<double>(a.stale_sync.calls),
       "count"},
      {"algs.init_worker.calls", static_cast<double>(a.init_worker.calls),
       "count"},
      // nn / tensor
      {"nn.fused_ms",
       local.ms - static_cast<double>(a.local_step_wall_ns) * 1e-6, "ms"},
      {"tensor.gemm.calls",
       counter("gemm.calls") + counter("gemm.batched_calls") +
           counter("gemm.mixed_calls"),
       "count"},
      {"tensor.gemm.gflop", gemm_gflop, "GFLOP"},
      {"tensor.gemm.gbytes",
       (counter("gemm.bytes") + counter("gemm.batched_bytes") +
        counter("gemm.mixed_bytes")) *
           1e-9,
       "GB"},
      {"tensor.gflop_per_s", compute_s > 0 ? gemm_gflop / compute_s : 0.0,
       "GFLOP/s"},
      {"nn.conv.fwd_calls", counter("conv.fwd_calls"), "count"},
      {"nn.conv.bwd_calls", counter("conv.bwd_calls"), "count"},
      // pop
      {"pop.sample_pct", share_pct(ms(r.pop_sample), run_ms), "%"},
      {"pop.turnover_pct", share_pct(ms(r.pop_turnover), run_ms), "%"},
      {"pop.spills", counter("pop.spills"), "count"},
      {"pop.restores", restores, "count"},
      {"pop.materializations", fresh, "count"},
      {"pop.restore_share",
       restores + fresh > 0 ? restores / (restores + fresh) : 0.0,
       "fraction"},
      {"pop.spill_mb", counter("pop.spill_bytes") / kMiB, "MiB"},
      {"pop.restore_mb", counter("pop.restore_bytes") / kMiB, "MiB"},
      {"pop.slab_peak_mb", gauge("pop.slab.peak_bytes") / kMiB, "MiB"},
      {"pop.materialized_peak", gauge("pop.materialized_peak"), "count"},
      {"pop.build_pct", share_pct(r.setup.pop_build_s * 1e3, setup_ms), "%"},
      // sim
      {"sim.oracle.queries", static_cast<double>(r.oracle.calls), "count"},
      {"sim.oracle_pct", share_pct(ms(r.oracle), run_ms), "%"},
      {"sim.plan_build_pct", share_pct(r.setup.plan_build_s * 1e3, setup_ms),
       "%"},
      // evt
      {"evt.self_pct", share_pct(evt_self_ms, run_ms), "%"},
      {"evt.uploads.arrived", arrived, "count"},
      {"evt.updates.admitted", admitted, "count"},
      {"evt.updates.stale", counter("evt.updates.stale", policy), "count"},
      {"evt.updates.dropped", counter("evt.updates.dropped", policy),
       "count"},
      {"evt.update_yield", arrived > 0 ? admitted / arrived : 0.0,
       "fraction"},
      {"evt.downloads.applied", counter("evt.downloads.applied", policy),
       "count"},
      {"evt.downloads.superseded",
       counter("evt.downloads.superseded", policy), "count"},
      {"evt.queue.depth_max", gauge("evt.queue.depth_max"), "count"},
      {"evt.staleness_mean", r.result.mean_staleness, "versions"},
      // data
      {"data.synth_ms", r.setup.synth_s * 1e3, "ms"},
      {"data.partition_ms", r.setup.partition_s * 1e3, "ms"},
      // obs
      {"obs.overhead_pct", 100.0 * (r.run_s / untraced_run_s - 1.0), "%"},
  };
}

int run_workload(Options o) {
  const Workload& w = find_workload(o.workload);
  const std::size_t nproc = host_cpus();
  print_provenance(o, nproc);

  RepOptions ro;
  ro.seed = o.seed;
  ro.smoke = o.smoke;
  obs::set_enabled(false);

  // Rep 1 is the warm-up and the reference run: it trains on
  // kReferenceSeed's inputs, and the convergence metrics are read from its
  // curve. Every later rep trains on --seed's inputs. Untraced reps run
  // until --seconds is used up (a traced run keeps room for its traced
  // rep), but at least three timed reps for the medians (two in a smoke
  // run, so that determinism is still checked; one for a traced run's
  // baseline, which the traced rep is checked against).
  const std::uint64_t start = now_ns();
  std::vector<RepResult> reps;
  const std::size_t min_reps = kWarmupReps + (o.trace ? 1 : o.smoke ? 2 : 3);
  double next_rep_s = 0;  // the slowest timed rep predicts the next one
  for (;;) {
    RepOptions rep_opt = ro;
    if (reps.size() < kWarmupReps) rep_opt.seed = kReferenceSeed;
    const std::uint64_t t0 = now_ns();
    reps.push_back(run_rep(w, rep_opt));
    const double wall = elapsed_s(t0);
    next_rep_s = reps.size() <= kWarmupReps ? wall : std::max(next_rep_s, wall);
    RepResult& r = reps.back();
    std::printf("rep %zu%s: setup %.3f s  run %.3f s  %zu rounds  "
                "digest %016llx\n",
                reps.size(),
                reps.size() <= kWarmupReps ? " (warm-up, reference)" : "",
                r.setup.total_s, r.run_s, r.round_ms.size(),
                static_cast<unsigned long long>(r.digest));
    // Timed reps only contribute timings and digests.
    if (reps.size() > kWarmupReps) r.result = fl::RunResult{};
    const double reserve = o.trace ? 1.2 * next_rep_s : 0.0;
    const double next_end = elapsed_s(start) + next_rep_s + reserve;
    if (reps.size() > kWarmupReps && next_end > kHardCapSeconds) break;
    if (reps.size() >= min_reps && next_end > o.seconds) break;
  }

  Checks checks;
  const RepResult& reference = reps.front();
  const RepResult& timed = reps[kWarmupReps];
  for (std::size_t i = kWarmupReps + 1; i < reps.size(); ++i) {
    checks.expect(reps[i].digest == timed.digest,
                  "rep " + std::to_string(i + 1) + " digest differs from rep " +
                      std::to_string(kWarmupReps + 1) +
                      " (non-deterministic run)");
  }
  for (const RepResult& r : reps) {
    if (r.cohort_size > 0) {
      checks.expect(r.peak_materialized <= r.cohort_size,
                    "materialized workers exceeded the cohort size");
    }
  }
  if (!o.smoke) {
    checks.expect(reference.rounds_to_target.has_value(),
                  "reference run never reached its target loss " +
                      std::to_string(w.target_loss));
  }

  std::printf("reference: digest %016llx  target loss %.2f at round %.3f of "
              "%zu",
              static_cast<unsigned long long>(reference.digest), w.target_loss,
              reference_rounds(reference), reference.result.curve.size() - 1);
  if (reference.modeled_s > 0) {
    std::printf(" (modeled %.2f of %.2f s)", reference.time_to_target_s,
                reference.modeled_s);
  }
  std::printf("  best_accuracy %.4f  final_accuracy %.4f\n",
              reference.result.best_accuracy(),
              reference.result.final_accuracy);
  std::printf("seed %llu: digest %016llx\n",
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(timed.digest));

  std::vector<Metric> metrics;
  if (!o.trace) {
    // setup_s is a median over at least kMinSetups set-ups (a fraction of a
    // second each): extra set-ups run on their own, so the median does not
    // rest on the few full reps a run has time for.
    constexpr std::size_t kMinSetups = 7;
    std::vector<double> setup_s;
    for (const RepResult& r : reps) setup_s.push_back(r.setup.total_s);
    RepOptions setup_only = ro;
    setup_only.setup_only = true;
    while (setup_s.size() < kMinSetups &&
           elapsed_s(start) < kHardCapSeconds) {
      setup_s.push_back(run_rep(w, setup_only).setup.total_s);
    }
    metrics = end_to_end(w, reps, setup_s);
  } else {
    std::vector<double> run_s;
    for (std::size_t i = kWarmupReps; i < reps.size(); ++i) {
      run_s.push_back(reps[i].run_s);
    }
    obs::Registry::global().reset();
    obs::Tracer::global().reset();
    obs::CommAccountant::global().reset();
    obs::set_enabled(true);
    ro.traced = true;
    const std::uint64_t t0 = now_ns();
    const RepResult traced = run_rep(w, ro);
    const double wall = elapsed_s(t0);
    obs::set_enabled(false);
    checks.expect(traced.digest == timed.digest,
                  "traced digest differs from the untraced one (telemetry "
                  "perturbed the run)");
    if (!w.event_driven) {
      checks.expect(counter("engine.cohort.fused_grads") > 0 &&
                        counter("engine.cohort.fallback_grads") == 0,
                    "sync workload left the fused cohort path");
    }
    if (traced.cohort_size > 0) {
      checks.expect(gauge("pop.materialized_peak") ==
                        static_cast<double>(traced.peak_materialized),
                    "pop.materialized_peak gauge disagrees with the store");
    }
    metrics = per_layer(traced, wall, median(run_s), w.event_driven, checks);
  }
  std::printf("\n%s metrics (%zu checks, %zu failed):\n", w.name.c_str(),
              checks.attempted, checks.failed);
  print_metrics(metrics);
  print_json(checks, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.self_test) return run_self_test() == 0 ? 0 : 1;
    HFL_CHECK(!o.workload.empty(), "--workload is required");
    return run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hfl_bench: %s\n", e.what());
    return 2;
  }
}

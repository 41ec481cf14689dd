#include "benchmark/workloads.h"

#include <algorithm>
#include <memory>

#include "src/algs/registry.h"
#include "src/common/errors.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/evt/async_engine.h"
#include "src/fl/engine.h"
#include "src/net/time_simulator.h"
#include "src/nn/models.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"
#include "src/sim/sparse_fault_plan.h"

namespace hfl::bench {

namespace {

// Each workload trains on one fixed synthetic dataset, the way a real
// benchmark trains on the same MNIST every run; --seed draws everything the
// run itself randomizes (partition, initial model, batch streams, cohorts,
// faults, latencies).
constexpr std::uint64_t kDatasetSeed = 1;

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Smoke runs keep each workload's shape but shorten the horizon to about a
// twentieth, rounded up to whole cloud rounds.
std::size_t horizon(std::size_t full, std::size_t round, bool smoke) {
  if (!smoke) return full;
  return std::max<std::size_t>(round, (full / 20 + round - 1) / round * round);
}

// Where the test loss first falls to `target`: the curve index of the last
// evaluation above it and the share of the way to the next evaluation, by
// linear interpolation. Empty when the run never gets there.
struct Crossing {
  std::size_t before = 0;
  double frac = 0;
};

std::optional<Crossing> loss_crossing(const fl::RunResult& r, double target) {
  for (std::size_t i = 1; i < r.curve.size(); ++i) {
    const double above = r.curve[i - 1].test_loss;
    const double below = r.curve[i].test_loss;
    if (below <= target) {
      return Crossing{i - 1, above <= target
                                 ? 0.0
                                 : (above - target) / (above - below)};
    }
  }
  return std::nullopt;
}

double lerp(double a, double b, double frac) { return a + frac * (b - a); }

// pop_1m's heavy-head data mass: `head` workers (drawn by the seed) hold
// `head_samples` indices each, every other worker one; all indices point
// into the shared training pool, so the pool stays small at any population.
data::Partition heavy_head_partition(std::size_t workers, std::size_t head,
                                     std::size_t head_samples,
                                     std::size_t pool, Rng& rng) {
  std::vector<std::uint8_t> is_head(workers, 0);
  for (std::size_t chosen = 0; chosen < head;) {
    const std::size_t w = rng.uniform_index(workers);
    if (is_head[w] == 0) {
      is_head[w] = 1;
      ++chosen;
    }
  }
  data::Partition part(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    part[w].resize(is_head[w] != 0 ? head_samples : 1);
    for (std::size_t& idx : part[w]) idx = rng.uniform_index(pool);
  }
  return part;
}

fl::RunConfig base_config(const Workload& w, const RepOptions& opt) {
  fl::RunConfig cfg;
  cfg.seed = opt.seed;
  cfg.num_threads = kEngineThreads;
  cfg.batch_size = w.batch_size;
  cfg.eta = 0.01;
  cfg.gamma = 0.5;
  cfg.gamma_edge = 0.5;
  return cfg;
}

// Modeled clock of a barrier run: net::TimeSimulator replays `topo` under
// HierAdMo's message sizes with latencies drawn from the seed.
void barrier_clock(const fl::Topology& topo, const fl::RunConfig& cfg,
                   std::size_t params, const Workload& w,
                   const RepOptions& opt, RepResult& rep) {
  net::TimeSimConfig tsim = net::make_time_sim_config(
      "HierAdMo", true, params, topo.num_workers());
  tsim.seed = opt.seed;
  const net::TimeSimulator clock(topo, cfg, tsim);
  rep.modeled_s = clock.total_time();
  if (const auto c = loss_crossing(rep.result, w.target_loss)) {
    const std::vector<fl::MetricPoint>& curve = rep.result.curve;
    rep.time_to_target_s =
        lerp(clock.time_at_iteration(curve[c->before].iteration),
             clock.time_at_iteration(curve[c->before + 1].iteration), c->frac);
  }
}

// What every workload reads off its algorithm probe after the run.
void read_probe(const AlgorithmProbe& probe, RepResult& rep) {
  rep.alg = probe.totals();
  const std::vector<std::uint64_t>& entries = probe.cloud_entries_ns();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    rep.round_ms.push_back(
        static_cast<double>(entries[i] - entries[i - 1]) * 1e-6);
  }
}

// cnn_sync and wide_mlp_sync: dense fl::Engine, fused cohort path.
RepResult run_dense_sync(const Workload& w, const RepOptions& opt, bool cnn) {
  RepResult rep;
  const std::uint64_t s0 = now_ns();
  Rng data_rng(kDatasetSeed);
  const data::TrainTest dataset = data::make_synthetic_mnist(data_rng);
  const std::uint64_t s1 = now_ns();
  const fl::Topology topo = fl::Topology::uniform(4, 2);
  Rng rng(opt.seed);
  data::Partition partition =
      data::partition_by_class(dataset.train, topo.num_workers(), 5, rng);
  const std::uint64_t s2 = now_ns();

  fl::RunConfig cfg = base_config(w, opt);
  cfg.tau = cnn ? 2 : 1;
  cfg.pi = 2;
  cfg.eval_max_samples = 250;
  cfg.total_iterations =
      horizon(cnn ? 240 : 160, cfg.tau * cfg.pi, opt.smoke);
  const nn::ModelFactory factory = cnn ? nn::cnn({1, 28, 28}, 10)
                                       : nn::mlp({1, 28, 28}, 256, 10);
  fl::Engine engine(factory, dataset, std::move(partition), topo, cfg);
  const std::uint64_t s3 = now_ns();
  rep.setup = {seconds_between(s0, s1), seconds_between(s1, s2), 0, 0,
               seconds_between(s2, s3), seconds_between(s0, s3)};
  if (opt.setup_only) return rep;

  auto alg = algs::make_algorithm("HierAdMo");
  AlgorithmProbe probe(*alg, opt.traced);
  const std::uint64_t r0 = now_ns();
  rep.result = engine.run(probe);
  const std::uint64_t r1 = now_ns();
  rep.run_s = seconds_between(r0, r1);

  barrier_clock(topo, cfg, factory()->num_params(), w, opt, rep);
  rep.post_s = seconds_between(r1, now_ns());
  read_probe(probe, rep);
  return rep;
}

// pop_1m: a million-worker virtualized population, sampled cohorts, lazy
// fault oracle.
RepResult run_population(const Workload& w, const RepOptions& opt) {
  RepResult rep;
  const std::size_t edges = opt.smoke ? 100 : 1000;
  const std::size_t per_edge = opt.smoke ? 100 : 1000;
  const std::size_t head = opt.smoke ? 64 : 4096;
  constexpr std::size_t kPool = 20000;
  constexpr std::size_t kCohort = 512;

  const std::uint64_t s0 = now_ns();
  Rng data_rng(kDatasetSeed);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 4, 4};
  spec.num_classes = 10;
  spec.train_size = kPool;
  spec.test_size = 2000;
  spec.coarse = 2;
  const data::TrainTest dataset = data::make_synthetic(data_rng, spec);
  const std::uint64_t s1 = now_ns();
  const fl::Topology topo = fl::Topology::uniform(edges, per_edge);
  Rng rng(opt.seed);
  data::Partition partition =
      heavy_head_partition(topo.num_workers(), head, 256, kPool, rng);
  const std::uint64_t s2 = now_ns();

  fl::RunConfig cfg = base_config(w, opt);
  cfg.tau = 2;
  cfg.pi = 1;
  cfg.eval_max_samples = 0;
  cfg.total_iterations = horizon(480, cfg.tau * cfg.pi, opt.smoke);
  const nn::ModelFactory factory = nn::logistic_regression({1, 4, 4}, 10);
  fl::Engine engine(factory, dataset, std::move(partition), topo, cfg);
  const std::uint64_t s3 = now_ns();

  pop::VirtConfig vcfg;
  vcfg.cohort_size = kCohort;
  pop::CohortStore store(factory, dataset, engine.partition(), topo, cfg,
                         vcfg);
  const std::uint64_t s4 = now_ns();

  sim::FaultConfig fc;
  fc.seed = opt.seed;
  fc.dropout.prob = 0.1;
  fc.absent_policy = fl::AbsentPolicy::kDecay;
  fc.absent_decay = 0.5;
  const sim::SparseFaultPlan plan(topo.num_workers(), topo.num_edges(), fc);
  const std::uint64_t s5 = now_ns();
  rep.setup = {seconds_between(s0, s1), seconds_between(s1, s2),
               seconds_between(s3, s4), seconds_between(s4, s5),
               seconds_between(s2, s3), seconds_between(s0, s5)};
  if (opt.setup_only) return rep;

  CohortProbe cohort(store, opt.traced);
  OracleProbe oracle(plan, opt.traced);
  engine.set_cohort_provider(&cohort);
  auto alg = algs::make_algorithm("HierAdMo");
  AlgorithmProbe probe(*alg, opt.traced);
  const std::uint64_t r0 = now_ns();
  rep.result = engine.run_with_oracle(probe, &oracle);
  const std::uint64_t r1 = now_ns();
  // No modeled clock: a barrier replay of the fleet is O(T·N) and would
  // model a million uploads per interval where only the cohort trains.
  rep.run_s = seconds_between(r0, r1);
  read_probe(probe, rep);
  rep.pop_sample = cohort.sample();
  rep.pop_turnover = cohort.turnover();
  rep.oracle = oracle.queries();
  rep.peak_materialized = store.peak_materialized();
  rep.cohort_size = kCohort;
  return rep;
}

// async_stragglers: the event engine, semi-async with adaptive deadlines,
// half the fleet 5x slow.
RepResult run_async(const Workload& w, const RepOptions& opt) {
  RepResult rep;
  const std::uint64_t s0 = now_ns();
  Rng data_rng(kDatasetSeed);
  const data::TrainTest dataset = data::make_synthetic_mnist(data_rng);
  const std::uint64_t s1 = now_ns();
  const fl::Topology topo = fl::Topology::uniform(16, 8);
  Rng rng(opt.seed);
  data::Partition partition =
      data::partition_iid(dataset.train, topo.num_workers(), rng);
  const std::uint64_t s2 = now_ns();

  fl::RunConfig cfg = base_config(w, opt);
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.total_iterations = horizon(160, cfg.tau * cfg.pi, opt.smoke);
  cfg.batched = false;
  cfg.policy = fl::ExecPolicy::kSemiAsync;
  cfg.semi_async_deadline_s = 0.5;
  cfg.adaptive_deadline = true;

  sim::FaultConfig fc;
  fc.seed = opt.seed;
  fc.straggler.fraction = 0.5;
  fc.straggler.slowdown = 5.0;
  fc.straggler.jitter = 0.3;
  const sim::FaultPlan plan(topo, cfg, fc);
  const std::uint64_t s3 = now_ns();

  const nn::ModelFactory factory = nn::logistic_regression({1, 28, 28}, 10);
  net::TimeSimConfig tsim = net::make_time_sim_config(
      "HierAdMo", true, factory()->num_params(), topo.num_workers());
  tsim.seed = opt.seed;
  evt::AsyncEngine engine(factory, dataset, std::move(partition), topo, cfg,
                          tsim);
  const std::uint64_t s4 = now_ns();
  rep.setup = {seconds_between(s0, s1), seconds_between(s1, s2), 0,
               seconds_between(s2, s3), seconds_between(s3, s4),
               seconds_between(s0, s4)};
  if (opt.setup_only) return rep;

  auto alg = algs::make_algorithm("HierAdMo");
  AlgorithmProbe probe(*alg, opt.traced);
  const std::uint64_t r0 = now_ns();
  rep.result = engine.run(probe, &plan);
  const std::uint64_t r1 = now_ns();
  rep.run_s = seconds_between(r0, r1);

  // The event clock stamps every curve point with modeled seconds.
  rep.modeled_s = rep.result.sim_seconds;
  if (const auto c = loss_crossing(rep.result, w.target_loss)) {
    const std::vector<fl::MetricPoint>& curve = rep.result.curve;
    rep.time_to_target_s = lerp(curve[c->before].sim_time,
                                curve[c->before + 1].sim_time, c->frac);
  }
  read_probe(probe, rep);
  return rep;
}

}  // namespace

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"cnn_sync", 1.00, 4, false},
      {"wide_mlp_sync", 1.25, 2, false},
      {"pop_1m", 1.60, 4, false},
      {"async_stragglers", 2.12, 8, true},
  };
  return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  HFL_CHECK(false, "unknown workload '" + name + "'");
  return workloads().front();  // unreachable
}

RepResult run_rep(const Workload& w, const RepOptions& opt) {
  RepResult rep;
  if (w.name == "cnn_sync") {
    rep = run_dense_sync(w, opt, true);
  } else if (w.name == "wide_mlp_sync") {
    rep = run_dense_sync(w, opt, false);
  } else if (w.name == "pop_1m") {
    rep = run_population(w, opt);
  } else {
    rep = run_async(w, opt);
  }
  if (const auto c = loss_crossing(rep.result, w.target_loss)) {
    rep.rounds_to_target = static_cast<double>(c->before) + c->frac;
  }
  rep.digest = run_digest(rep.result);
  return rep;
}

std::uint64_t run_digest(const fl::RunResult& r) {
  Fnv h;
  for (const fl::MetricPoint& p : r.curve) {
    h.u64(p.iteration);
    h.f64(p.test_loss);
    h.f64(p.test_accuracy);
    h.f64(p.sim_time);
  }
  h.bytes(r.final_params.data(), r.final_params.size() * sizeof(Scalar));
  for (const std::size_t m : r.worker_miss_counts) h.u64(m);
  h.u64(r.admitted_updates);
  h.u64(r.stale_updates);
  h.u64(r.dropped_updates);
  return h.value();
}

}  // namespace hfl::bench

// Parameter-plane hot-path bench: fused kernels, O(cohort) roster
// accounting, and parallel cohort turnover.
//
// Three sections, each asserting correctness before reporting a time:
//
//   1. kernels — the fused vec kernels (src/common/vec_ops.h) against the
//      composed axpy/scale passes they replaced, across model sizes. The
//      fused result is first checked bit-for-bit against the documented
//      per-element std::fma expression; the composed baseline is the
//      pre-refactor cost model.
//
//   2. roster — Participation::set_cohort_roster (O(cohort + edges)) on a
//      growing population with a fixed small cohort: the per-interval
//      accounting cost of virtualized runs must not scale with N. The
//      cohort's weights are checked against their closed form before timing
//      is reported.
//
//   3. turnover — CohortStore spill/restore of a full cohort (the
//      set_cohort merge) at 1 host thread vs all host threads; serialization
//      fans out per worker on the attached pool (src/pop/cohort_store.h).
//
// Writes BENCH_param.json into the working directory. Timing discipline:
// modes are interleaved for several reps and medians reported, so machine
// drift cancels instead of biasing whichever mode ran last. Smoke runs
// (HFL_BENCH_SCALE < 1) shrink sizes and take one rep — they check
// correctness, not time.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/vec_ops.h"
#include "src/fl/availability.h"
#include "src/pop/cohort_store.h"

namespace {

using namespace hfl;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Vec rand_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (Scalar& e : v) e = 2.0 * rng.uniform() - 1.0;
  return v;
}

// ---------------------------------------------------------------------------
// Section 1: fused kernels vs composed passes.
// ---------------------------------------------------------------------------

struct KernelResult {
  std::string name;
  std::size_t d = 0;
  double fused_ns = 0;
  double composed_ns = 0;
};

// One kernel benchmark: `fused(state)` and `composed(state)` must leave the
// state equivalent; `check` validates the fused output once, bitwise,
// against the std::fma reference.
template <typename Reset, typename Fused, typename Composed>
KernelResult bench_kernel(const std::string& name, std::size_t d, int reps,
                          Reset reset, Fused fused, Composed composed) {
  // Inner iterations sized so one rep is comfortably above timer noise.
  const int inner = std::max(1, static_cast<int>((1 << 22) / d));
  std::vector<double> tf, tc;
  for (int rep = 0; rep < reps; ++rep) {
    reset();
    auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < inner; ++it) fused();
    tf.push_back(seconds_since(t0));
    reset();
    t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < inner; ++it) composed();
    tc.push_back(seconds_since(t0));
  }
  KernelResult r;
  r.name = name;
  r.d = d;
  r.fused_ns = median(tf) * 1e9 / inner;
  r.composed_ns = median(tc) * 1e9 / inner;
  return r;
}

std::vector<KernelResult> run_kernel_section(std::size_t d, int reps) {
  Rng rng(11);
  const Vec x0 = rand_vec(d, rng), g0 = rand_vec(d, rng);
  Vec a(d), b(d), c(d), scratch(d);
  std::vector<KernelResult> out;

  // axpby: y = 0.3*x + 0.7*y  vs  scale(y, 0.7); axpy(0.3, x, y).
  {
    Vec ref = g0;
    vec::axpby(0.3, x0, 0.7, ref);
    for (std::size_t i = 0; i < d; ++i) {
      HFL_CHECK(ref[i] == std::fma(0.3, x0[i], 0.7 * g0[i]),
                "axpby drifted from its fma reference");
    }
    out.push_back(bench_kernel(
        "axpby", d, reps, [&] { a = g0; },
        [&] { vec::axpby(0.3, x0, 0.7, a); },
        [&] {
          vec::scale(a, 0.7);
          vec::axpy(0.3, x0, a);
        }));
  }

  // momentum_step: m = 0.9*m + g; p -= 0.05*m  vs  the three separate
  // passes (scale, axpy, axpy).
  out.push_back(bench_kernel(
      "momentum_step", d, reps,
      [&] {
        a = g0;  // m
        b = x0;  // p
      },
      [&] { vec::momentum_step(a, g0, 0.9, b, 0.05); },
      [&] {
        vec::scale(a, 0.9);
        vec::axpy(1.0, g0, a);
        vec::axpy(-0.05, a, b);
      }));

  // decay_toward: y = x + 0.5*(y - x)  vs  materializing (y - x) first.
  out.push_back(bench_kernel(
      "decay_toward", d, reps, [&] { a = g0; },
      [&] { vec::decay_toward(a, x0, 0.5); },
      [&] {
        scratch = a;
        vec::axpy(-1.0, x0, scratch);
        a = x0;
        vec::axpy(0.5, scratch, a);
      }));

  // nag_step_accumulate: the HierAdMo local step + 3 accumulators in one
  // pass vs the composed sequence (5 vector passes + 3 accumulator axpys).
  {
    Vec y(d), v(d), sg(d), sy(d), sv(d);
    out.push_back(bench_kernel(
        "nag_step_accumulate", d, reps,
        [&] {
          a = x0;
          y = g0;
          vec::fill(v, 0.0);
          vec::fill(sg, 0.0);
          vec::fill(sy, 0.0);
          vec::fill(sv, 0.0);
        },
        [&] { vec::nag_step_accumulate(a, y, v, g0, 0.05, 0.9, sg, sy, sv); },
        [&] {
          vec::axpy(1.0, g0, sg);
          vec::axpy(1.0, y, sy);
          scratch = a;                 // y_new = x - eta*grad
          vec::axpy(-0.05, g0, scratch);
          v = scratch;                 // v = y_new - y
          vec::axpy(-1.0, y, v);
          y = scratch;                 // y = y_new
          a = scratch;                 // x = y_new + gamma*v
          vec::axpy(0.9, v, a);
          vec::axpy(1.0, v, sv);
        }));
  }
  (void)c;
  return out;
}

// ---------------------------------------------------------------------------
// Section 2: cohort roster accounting.
// ---------------------------------------------------------------------------

struct RosterResult {
  std::size_t population = 0;
  std::size_t cohort = 0;
  double sparse_us = 0;
};

RosterResult run_roster_section(std::size_t num_edges,
                                std::size_t workers_per_edge,
                                std::size_t cohort_size, int reps) {
  const fl::Topology topo = fl::Topology::uniform(num_edges, workers_per_edge);
  const std::size_t N = topo.num_workers();
  std::vector<Scalar> weights(N, 1.0);
  fl::Participation part(topo, weights, /*edge_faults=*/true);

  // Deterministic rotating cohort; everyone up, all edges up.
  const std::vector<std::uint8_t> edge_up(topo.num_edges(), 1);
  std::vector<fl::WorkerId> cohort(cohort_size);
  std::vector<std::uint8_t> cohort_up(cohort_size, 1);

  const auto fill_cohort = [&](std::size_t round) {
    const std::size_t stride = N / cohort_size;
    for (std::size_t i = 0; i < cohort_size; ++i) {
      cohort[i] = (i * stride + round) % N;
    }
    std::sort(cohort.begin(), cohort.end());
  };

  // Correctness: unit masses make every weight an exact reciprocal of a
  // member count.
  fill_cohort(0);
  part.set_cohort_roster(cohort, cohort_up, edge_up);
  HFL_CHECK(part.num_active() == cohort_size,
            "cohort roster active count diverged");
  std::vector<std::size_t> per_edge(topo.num_edges(), 0);
  for (const fl::WorkerId w : cohort) ++per_edge[topo.edge_of_worker(w)];
  for (const fl::WorkerId w : cohort) {
    const auto members =
        static_cast<Scalar>(per_edge[topo.edge_of_worker(w)]);
    HFL_CHECK(part.weight_in_edge(w) == 1.0 / members &&
                  part.weight_global(w) ==
                      1.0 / static_cast<Scalar>(cohort_size),
              "cohort roster weights diverged from their closed form");
  }

  const int inner = 8;
  std::vector<double> ts;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < inner; ++it) {
      fill_cohort(static_cast<std::size_t>(rep * inner + it + 1));
      part.set_cohort_roster(cohort, cohort_up, edge_up);
    }
    ts.push_back(seconds_since(t0));
  }

  RosterResult r;
  r.population = N;
  r.cohort = cohort_size;
  r.sparse_us = median(ts) * 1e6 / inner;
  return r;
}

// ---------------------------------------------------------------------------
// Section 3: cohort turnover (spill + restore) by host thread count.
// ---------------------------------------------------------------------------

struct TurnoverResult {
  std::size_t threads = 0;
  double turnover_ms = 0;  // one full-cohort swap (spill all + restore all)
};

TurnoverResult run_turnover_section(pop::CohortStore& store, const Vec& x0,
                                    std::size_t cohort_size,
                                    std::size_t threads, int reps) {
  ThreadPool pool(threads);
  store.attach_pool(&pool);
  store.begin_run(x0);

  // Two disjoint half-population cohorts; every swap spills one and
  // restores (or first materializes) the other.
  std::vector<fl::WorkerId> even(cohort_size), odd(cohort_size);
  for (std::size_t i = 0; i < cohort_size; ++i) {
    even[i] = 2 * i;
    odd[i] = 2 * i + 1;
  }
  store.begin_interval(1);
  store.set_cohort(even);
  store.begin_interval(2);
  store.set_cohort(odd);  // warm: both halves exist, slab populated

  std::vector<double> t;
  std::size_t clock = 2;
  const int inner = 4;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < inner; ++it) {
      store.begin_interval(++clock);
      store.set_cohort(clock % 2 == 1 ? even : odd);
    }
    t.push_back(seconds_since(t0));
  }
  store.attach_pool(nullptr);

  TurnoverResult r;
  r.threads = pool.size();
  r.turnover_ms = median(t) * 1e3 / inner;
  return r;
}

}  // namespace

int main() {
  using namespace hfl;

  const bool smoke = bench::bench_scale() < 1.0;
  const int reps = smoke ? 1 : 5;
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::FILE* json = std::fopen("BENCH_param.json", "w");
  HFL_CHECK(json != nullptr, "cannot open BENCH_param.json");
  std::fprintf(json, "{\n  \"host_threads\": %zu,\n", cores);

  // --- kernels -------------------------------------------------------------
  bench::print_heading("fused parameter-plane kernels (ns/call, median)");
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1 << 12}
            : std::vector<std::size_t>{1 << 12, 1 << 16, 1 << 20};
  std::fprintf(json, "  \"kernels\": [\n");
  bool first = true;
  for (const std::size_t d : sizes) {
    for (const KernelResult& r : run_kernel_section(d, reps)) {
      std::printf("%-20s d=%-8zu fused %10.0f ns  composed %10.0f ns  "
                  "(%.2fx)\n",
                  r.name.c_str(), r.d, r.fused_ns, r.composed_ns,
                  r.composed_ns / r.fused_ns);
      std::fprintf(json,
                   "%s    {\"kernel\": \"%s\", \"d\": %zu, \"fused_ns\": "
                   "%.1f, \"composed_ns\": %.1f, \"speedup\": %.3f}",
                   first ? "" : ",\n", r.name.c_str(), r.d, r.fused_ns,
                   r.composed_ns, r.composed_ns / r.fused_ns);
      first = false;
    }
  }
  std::fprintf(json, "\n  ],\n");

  // --- roster accounting ---------------------------------------------------
  bench::print_heading("per-interval roster accounting (us/call, median)");
  std::fprintf(json, "  \"roster\": [\n");
  // Cohort fixed at 256 while the population grows 64x: the cost must stay
  // flat. Full scale tops out at N = 1M.
  const std::vector<std::pair<std::size_t, std::size_t>> pops =
      smoke ? std::vector<std::pair<std::size_t, std::size_t>>{{64, 256}}
            : std::vector<std::pair<std::size_t, std::size_t>>{
                  {64, 256}, {64, 4096}, {64, 16384}};
  first = true;
  for (const auto& [edges, per_edge] : pops) {
    const RosterResult r = run_roster_section(edges, per_edge, 256, reps);
    std::printf("N=%-9zu cohort=256  %9.1f us\n", r.population,
                r.sparse_us);
    std::fprintf(json,
                 "%s    {\"population\": %zu, \"cohort\": %zu, "
                 "\"sparse_us\": %.2f}",
                 first ? "" : ",\n", r.population, r.cohort, r.sparse_us);
    first = false;
  }
  std::fprintf(json, "\n  ],\n");

  // --- cohort turnover -----------------------------------------------------
  bench::print_heading("cohort turnover: spill+restore (ms/swap, median)");
  Rng rng(7);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 8, 8};
  spec.num_classes = 4;
  spec.train_size = smoke ? 512 : 2048;
  spec.test_size = 64;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const fl::Topology topo =
      fl::Topology::uniform(8, smoke ? 32 : 128);  // 256 / 1024 workers
  const data::Partition partition =
      data::partition_iid(dataset.train, topo.num_workers(), rng);
  const nn::ModelFactory factory = nn::mlp({1, 8, 8}, 128, 4);

  fl::RunConfig cfg;
  cfg.total_iterations = 8;
  cfg.tau = 2;
  cfg.pi = 2;
  cfg.batch_size = 1;
  cfg.seed = 3;

  auto probe = factory();
  Rng init_rng = Rng(cfg.seed).fork(0x1217);
  probe->init_params(init_rng);
  const Vec x0 = probe->get_params();

  std::fprintf(json, "  \"turnover\": [\n");
  const std::size_t cohort_size = topo.num_workers() / 2;
  first = true;
  std::vector<std::size_t> thread_counts{1};
  if (cores > 1) thread_counts.push_back(cores);
  for (const std::size_t threads : thread_counts) {
    pop::VirtConfig virt;
    virt.cohort_size = cohort_size;
    pop::CohortStore store(factory, dataset, partition, topo, cfg, virt);
    const TurnoverResult r =
        run_turnover_section(store, x0, cohort_size, threads, reps);
    std::printf("threads=%-3zu cohort=%zu (%zu params/worker)  %8.2f "
                "ms/swap\n",
                r.threads, cohort_size, probe->num_params(), r.turnover_ms);
    std::fprintf(json,
                 "%s    {\"threads\": %zu, \"cohort\": %zu, \"params\": "
                 "%zu, \"turnover_ms\": %.3f}",
                 first ? "" : ",\n", r.threads, cohort_size,
                 probe->num_params(), r.turnover_ms);
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_param.json\n");
  return 0;
}

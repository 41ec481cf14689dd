// Batched cohort execution bench: per-worker vs fused vs fused+mixed.
//
// Measures the end-to-end effect of RunConfig::batched (one strided-batch
// forward/backward per cohort instead of per-worker model calls) and
// RunConfig::mixed_precision (FP32-compute/FP64-accumulate GEMMs) on
// ≥8-worker cohorts, plus the kernel-level strided-batch and mixed drivers
// in isolation. Every FP64 comparison asserts bit-identity before a speedup
// is reported — a faster wrong answer is a bug, not a result.
//
// Writes BENCH_batched.json into the working directory. Host thread count is
// recorded; the cohort path also wins on a single core (fewer staging
// copies, amortized panel packing, wider FP32 lanes), so the numbers are
// meaningful there too.
//
// Timing discipline: the three modes are run INTERLEAVED for several reps and
// the median per-mode time is reported, so slow machine drift (shared hosts)
// cancels instead of biasing whichever mode ran last.
//
// The baseline is the in-build per-worker path: for dense models it is the
// pre-batched per-worker code, for conv models it is faster than that (the
// layer calls the batched spans too), so speedup_batched understates the
// gain of the cohort path for convolutions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/algs/registry.h"
#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_batched.h"
#include "src/tensor/gemm_mixed.h"

namespace {

using namespace hfl;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_curve(const fl::RunResult& a, const fl::RunResult& b) {
  if (a.final_params != b.final_params) return false;
  if (a.curve.size() != b.curve.size()) return false;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].test_loss != b.curve[i].test_loss ||
        a.curve[i].test_accuracy != b.curve[i].test_accuracy) {
      return false;
    }
  }
  return true;
}

Scalar max_abs_diff(const Vec& a, const Vec& b) {
  HFL_CHECK(a.size() == b.size(), "size mismatch");
  Scalar m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

struct Workload {
  std::string model;
  nn::ModelFactory factory;
  std::size_t iters;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  using namespace hfl;

  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  Rng rng(7);
  const data::TrainTest dataset = data::make_synthetic_mnist(rng);
  const fl::Topology topo = fl::Topology::uniform(8, 4);  // 32-worker cohort
  const data::Partition partition =
      data::partition_by_class(dataset.train, topo.num_workers(), 5, rng);

  std::FILE* json = std::fopen("BENCH_batched.json", "w");
  HFL_CHECK(json != nullptr, "cannot open BENCH_batched.json");
  std::fprintf(json, "{\n  \"host_threads\": %zu,\n", cores);
  std::fprintf(json, "  \"cohort_workers\": %zu,\n", topo.num_workers());
  std::fprintf(json, "  \"workloads\": [\n");

  const std::vector<Workload> workloads = {
      {"logistic", nn::logistic_regression({1, 28, 28}, 10),
       bench::scaled_iters(64, 8)},
      {"mlp", nn::mlp({1, 28, 28}, 256, 10), bench::scaled_iters(16, 8)},
      {"cnn", nn::cnn({1, 28, 28}, 10), bench::scaled_iters(8, 8)},
  };

  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const Workload& wl = workloads[wi];
    bench::print_heading("cohort path: " + wl.model + " / HierAdMo, " +
                         std::to_string(topo.num_workers()) + " workers");

    fl::RunConfig cfg;
    cfg.total_iterations = wl.iters;
    cfg.tau = 4;  // paper-realistic sync cadence: compute dominates the round
    cfg.pi = 2;
    cfg.batch_size = 16;
    cfg.eval_max_samples = 200;
    cfg.seed = 3;
    cfg.num_threads = cores;

    const auto run_mode = [&](bool batched, bool mixed, double& secs) {
      fl::RunConfig mode_cfg = cfg;
      mode_cfg.batched = batched;
      mode_cfg.mixed_precision = mixed;
      fl::Engine engine(wl.factory, dataset, partition, topo, mode_cfg);
      auto alg = algs::make_algorithm("HierAdMo");
      const auto t0 = std::chrono::steady_clock::now();
      fl::RunResult r = engine.run(*alg);
      secs = seconds_since(t0);
      return r;
    };

    // Interleaved reps: the runs are deterministic, so curves from any rep
    // are usable for the identity checks; only the times vary. Smoke runs
    // (HFL_BENCH_SCALE < 1) take one rep — they check correctness, not time.
    const int run_reps = bench::bench_scale() < 1.0 ? 1 : 3;
    std::vector<double> tw, tb, tm;
    fl::RunResult r_ref, r_bat, r_mix;
    for (int rep = 0; rep < run_reps; ++rep) {
      double s = 0;
      r_ref = run_mode(false, false, s);
      tw.push_back(s);
      r_bat = run_mode(true, false, s);
      tb.push_back(s);
      r_mix = run_mode(true, true, s);
      tm.push_back(s);
    }
    const double per_worker_s = median(tw);
    const double batched_s = median(tb);
    const double mixed_s = median(tm);

    HFL_CHECK(same_curve(r_ref, r_bat),
              "batched FP64 run diverged from per-worker for " + wl.model);
    const Scalar mixed_drift = max_abs_diff(r_ref.final_params,
                                            r_mix.final_params);

    const double per_round = 1000.0 / static_cast<double>(wl.iters);
    std::printf(
        "%-9s per-worker %.3fs  batched %.3fs (%.2fx)  mixed %.3fs (%.2fx)\n"
        "          round: %.2f / %.2f / %.2f ms   fp64 bit-identical: yes, "
        "mixed max drift %.2e\n",
        wl.model.c_str(), per_worker_s, batched_s, per_worker_s / batched_s,
        mixed_s, per_worker_s / mixed_s, per_worker_s * per_round,
        batched_s * per_round, mixed_s * per_round,
        static_cast<double>(mixed_drift));
    std::fprintf(
        json,
        "    {\"model\": \"%s\", \"algorithm\": \"HierAdMo\", \"T\": %zu,\n"
        "     \"per_worker_s\": %.4f, \"batched_s\": %.4f, \"mixed_s\": "
        "%.4f,\n"
        "     \"round_ms\": {\"per_worker\": %.3f, \"batched\": %.3f, "
        "\"mixed\": %.3f},\n"
        "     \"speedup_batched\": %.3f, \"speedup_mixed\": %.3f,\n",
        wl.model.c_str(), wl.iters, per_worker_s, batched_s, mixed_s,
        per_worker_s * per_round, batched_s * per_round, mixed_s * per_round,
        per_worker_s / batched_s, per_worker_s / mixed_s);
    std::fprintf(
        json,
        "     \"fp64_bit_identical\": true, \"mixed_max_drift\": %.3e}%s\n",
        static_cast<double>(mixed_drift),
        wi + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");

  // -- kernel level: strided-batch and mixed drivers in isolation -----------
  bench::print_heading("kernels: batched / mixed GEMM vs per-item FP64");
  // Conv-like shape: shared (out_ch × kk) weights times per-sample col
  // blocks, batch of 16 samples.
  const std::size_t m = 32, k = 288, n = 576, items = 16;
  Rng krng(13);
  Vec a(m * k), b(items * k * n), c_ref(items * m * n), c_bat(items * m * n);
  for (auto& v : a) v = krng.uniform(-1.0, 1.0);
  for (auto& v : b) v = krng.uniform(-1.0, 1.0);
  // Interleaved median-of-reps, like the workload section above.
  const int reps = 10;
  Vec c_mix(items * m * n);
  std::vector<double> kl, kb, km;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < items; ++i) {
      ops::gemm(false, false, m, n, k, a.data(), k, b.data() + i * k * n, n,
                0.0, c_ref.data() + i * m * n, n);
    }
    kl.push_back(seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    ops::gemm_batched(false, false, m, n, k, items, a.data(), k, 0, b.data(),
                      n, k * n, 0.0, c_bat.data(), n, m * n);
    kb.push_back(seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    ops::gemm_batched_mixed(false, false, m, n, k, items, a.data(), k, 0,
                            b.data(), n, k * n, 0.0, c_mix.data(), n, m * n);
    km.push_back(seconds_since(t0));
  }
  const double loop_s = median(kl);
  const double batched_kernel_s = median(kb);
  const double mixed_kernel_s = median(km);
  HFL_CHECK(c_ref == c_bat, "gemm_batched diverged from the per-item loop");
  Scalar scale = 1.0, err = 0.0;
  for (const Scalar v : c_ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    err = std::max(err, std::abs(c_ref[i] - c_mix[i]));
  }
  const double rel_err = static_cast<double>(err / scale);
  HFL_CHECK(rel_err <= 1e-6, "gemm_mixed outside its accuracy contract");

  std::printf(
      "gemm %zux%zux%zu x%zu: per-item %.4fs  batched %.4fs (%.2fx)  "
      "mixed %.4fs (%.2fx)  rel_err %.2e\n",
      m, n, k, items, loop_s, batched_kernel_s, loop_s / batched_kernel_s,
      mixed_kernel_s, loop_s / mixed_kernel_s, rel_err);
  std::fprintf(
      json,
      "  \"kernels\": {\"m\": %zu, \"n\": %zu, \"k\": %zu, \"items\": %zu,\n"
      "    \"per_item_s\": %.5f, \"batched_s\": %.5f, \"mixed_s\": %.5f,\n"
      "    \"speedup_batched\": %.3f, \"speedup_mixed\": %.3f, "
      "\"mixed_rel_err\": %.3e,\n"
      "    \"fp64_bit_identical\": true}\n",
      m, n, k, items, loop_s, batched_kernel_s, mixed_kernel_s,
      loop_s / batched_kernel_s, loop_s / mixed_kernel_s, rel_err);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_batched.json\n");
  return 0;
}

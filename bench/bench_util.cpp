#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hfl::bench {
namespace {

Scalar bench_scale() {
  const char* env = std::getenv("HFL_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const Scalar s = std::atof(env);
  return std::clamp(s, Scalar{0.1}, Scalar{100.0});
}

}  // namespace

std::size_t scaled_iters(std::size_t base, std::size_t multiple) {
  const auto scaled = static_cast<std::size_t>(
      static_cast<Scalar>(base) * bench_scale());
  const std::size_t m = std::max<std::size_t>(1, multiple);
  return std::max(m, (scaled + m - 1) / m * m);
}

void print_heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string pct(Scalar accuracy) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", accuracy * 100.0);
  return buf;
}

fl::RunResult run_algorithm(fl::Engine& engine, const std::string& name) {
  auto alg = algs::make_algorithm(name);
  return engine.run(*alg);
}

}  // namespace hfl::bench

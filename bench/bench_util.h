// Shared helpers for the experiment harnesses.
//
// Each bench binary reproduces one table or figure of the paper. The
// workloads are scaled for CPU simulation (DESIGN.md §3); the environment
// variable HFL_BENCH_SCALE (default 1.0) multiplies dataset sizes and
// iteration counts for users who want longer runs closer to the paper's
// horizons.
#pragma once

#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/core/hieradmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"

namespace hfl::bench {

// Scales an iteration count by HFL_BENCH_SCALE (default 1.0, clamped to
// [0.1, 100]) and rounds it UP to a multiple of `multiple` so T = Kτ = Pτπ
// stays valid.
std::size_t scaled_iters(std::size_t base, std::size_t multiple);

// Pretty-printers.
void print_heading(const std::string& title);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);

// Formats an accuracy as "12.34".
std::string pct(Scalar accuracy);

// Runs one algorithm on a prepared engine and returns the result.
fl::RunResult run_algorithm(fl::Engine& engine, const std::string& name);

}  // namespace hfl::bench

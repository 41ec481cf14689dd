// Order statistics a run reports its timings with. (Statistics across runs
// — quartile spreads and the regression rule — live in spread.py.)
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace hfl::bench {

// Median of `v` (mean of the two middle values for even sizes). Requires a
// non-empty input.
double median(std::vector<double> v);

// Nearest-rank p-th percentile (0 < p < 1) of `v`, reported only when at
// least `min_beyond` samples lie strictly above it — a tail percentile
// resting on fewer samples is noise. Returns nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> v, double p,
                                      std::size_t min_beyond = 10);

// Smallest sample count for which tail_percentile(v, p, min_beyond) can
// succeed on distinct values.
std::size_t samples_needed(double p, std::size_t min_beyond = 10);

}  // namespace hfl::bench

#include "benchmark/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/errors.h"

namespace hfl::bench {

double median(std::vector<double> v) {
  HFL_CHECK(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::optional<double> tail_percentile(std::vector<double> v, double p,
                                      std::size_t min_beyond) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const double value = v[std::max<std::size_t>(rank, 1) - 1];
  const auto beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), value));
  if (beyond < min_beyond) return std::nullopt;
  return value;
}

std::size_t samples_needed(double p, std::size_t min_beyond) {
  std::size_t n = 1;
  while (n - static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))) <
         min_beyond) {
    ++n;
  }
  return n;
}

}  // namespace hfl::bench

#include "src/pop/sampler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/errors.h"

namespace hfl::pop {

namespace {

Scalar checked_total(const std::vector<Scalar>& weights) {
  HFL_CHECK(!weights.empty(), "sampler needs at least one weight");
  Scalar total = 0;
  for (const Scalar w : weights) {
    HFL_CHECK(std::isfinite(w) && w >= 0.0,
              "sampler weights must be finite and non-negative");
    total += w;
  }
  HFL_CHECK(total > 0.0, "sampler weights must not all be zero");
  return total;
}

}  // namespace

AliasSampler::AliasSampler(const std::vector<Scalar>& weights) {
  const std::size_t n = weights.size();
  HFL_CHECK(n < 0xFFFFFFFFull, "alias table indices are 32-bit");
  const Scalar total = checked_total(weights);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Vose's stable construction: scale every weight to mean 1, then pair each
  // under-full column with an over-full donor.
  std::vector<Scalar> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<Scalar>(n) / total;
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers sit at (numerically) exactly 1: always accept.
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;
}

FenwickSampler::FenwickSampler(std::size_t n, WeightFn weight)
    : weight_(std::move(weight)) {
  HFL_CHECK(n > 0, "sampler needs at least one weight");
  HFL_CHECK(n < 0xFFFFFFFFull, "sampler indices are 32-bit");
  tree_.assign(n + 1, 0.0);
  Scalar sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Scalar w = weight_(i);
    HFL_CHECK(std::isfinite(w) && w >= 0.0,
              "sampler weights must be finite and non-negative");
    sum += w;
    num_positive_ += w > 0.0 ? 1 : 0;
    add(i, w);
  }
  HFL_CHECK(sum > 0.0, "sampler weights must not all be zero");

  mask_ = 1;
  while ((mask_ << 1) <= n) mask_ <<= 1;
}

void FenwickSampler::add(std::size_t i, Scalar delta) {
  for (std::size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
    tree_[j] += delta;
  }
}

Scalar FenwickSampler::total() const {
  Scalar t = 0;
  for (std::size_t j = tree_.size() - 1; j > 0; j &= j - 1) t += tree_[j];
  return t;
}

bool FenwickSampler::live(std::size_t i) const {
  return weight_(i) > 0.0 &&
         !std::binary_search(drawn_.begin(), drawn_.end(),
                             static_cast<std::uint32_t>(i));
}

std::size_t FenwickSampler::find(Scalar target) const {
  const std::size_t n = size();
  std::size_t pos = 0;
  for (std::size_t step = mask_; step > 0; step >>= 1) {
    const std::size_t next = pos + step;
    if (next <= n && tree_[next] <= target) {
      target -= tree_[next];
      pos = next;
    }
  }
  // pos = count of indices whose cumulative mass is <= target, i.e. the
  // 0-based winner — except when floating-point roundoff pushes the target
  // past the live total; clamp back onto the last live index.
  std::size_t i = pos < n ? pos : n - 1;
  while (i > 0 && !live(i)) --i;
  while (i < n - 1 && !live(i)) ++i;
  return i;
}

std::vector<std::uint32_t> FenwickSampler::sample(std::size_t k, Rng& rng) {
  HFL_CHECK(k <= num_positive_,
            "cannot draw " + std::to_string(k) +
                " distinct workers from a population with " +
                std::to_string(num_positive_) + " positive weights");
  std::vector<std::uint32_t> out;
  out.reserve(k);
  drawn_.clear();
  for (std::size_t d = 0; d < k; ++d) {
    const Scalar mass = total();
    const auto i = static_cast<std::uint32_t>(find(rng.uniform() * mass));
    out.push_back(i);
    add(i, -weight_(i));
    drawn_.insert(std::upper_bound(drawn_.begin(), drawn_.end(), i), i);
  }
  for (const std::uint32_t i : out) add(i, weight_(i));
  return out;
}

}  // namespace hfl::pop

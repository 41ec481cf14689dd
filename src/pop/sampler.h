// Exact weighted cohort-sampling primitives for virtualized populations.
//
// Cohort selection over a million-worker population must be (a) exact —
// worker i's inclusion probability proportional to its data mass D_i, not an
// approximation that would bias the recovered global objective — and (b)
// deterministic in (seed, round) alone, so a virtualized run replays the
// identical cohort sequence at any thread count. Two primitives cover the
// two sampling semantics:
//
//   * `AliasSampler` — Vose's alias method. O(n) construction, O(1) per
//     draw; i.i.d. WITH-replacement draws from the exact weight
//     distribution. A with-replacement cohort feeds multiplicities into the
//     aggregation weights (a worker drawn m times carries mass m·D_i).
//
//   * `FenwickSampler` — a Fenwick (binary-indexed) tree over the weights.
//     O(k log n) per cohort; successive draws WITHOUT replacement (each
//     draw removes the winner's mass before the next), the standard
//     sequential weighted-WOR scheme. The removed mass is restored after
//     every cohort, so one sampler serves the whole run. It keeps no copy
//     of the weights: it reads them through the caller's accessor (the
//     cohort store's is the population's 32-bit sample counts), and the
//     cohort's draws sit in a k-sized set, not in the weights.
//
// Both consume draws from a caller-supplied `Rng` and touch no global state;
// the cohort store forks one child stream per round (Rng::fork_nth keyed on
// the round index), which is what makes cohorts independent of each other
// and of every other stream in the engine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace hfl::pop {

// Vose alias table: O(1) exact draws from a fixed discrete distribution.
class AliasSampler {
 public:
  // `weights` must be non-empty, non-negative, with a positive finite sum.
  explicit AliasSampler(const std::vector<Scalar>& weights);

  std::size_t size() const { return prob_.size(); }

  // Heap bytes the table holds (part of pop.descriptors.bytes).
  std::size_t bytes() const { return heap_bytes(prob_) + heap_bytes(alias_); }

  // One exact draw: P(i) = weights[i] / Σ weights. Consumes one
  // uniform_index and one uniform from `rng` (fixed draw shape, so streams
  // stay aligned across configurations).
  std::size_t draw(Rng& rng) const {
    const std::size_t col = rng.uniform_index(prob_.size());
    return rng.uniform() < prob_[col] ? col
                                      : static_cast<std::size_t>(alias_[col]);
  }

 private:
  std::vector<Scalar> prob_;          // column acceptance thresholds
  std::vector<std::uint32_t> alias_;  // column fallback index
};

// Fenwick-tree sequential sampler: exact weighted draws WITHOUT
// replacement. Reusable — `sample` restores the removed mass before
// returning.
class FenwickSampler {
 public:
  // Weight of index i: non-negative, and the same bits on every call for
  // the sampler's lifetime (the accessor must stay callable that long).
  using WeightFn = std::function<Scalar(std::size_t)>;

  // `n` weights, non-empty and non-negative with a positive sum.
  FenwickSampler(std::size_t n, WeightFn weight);

  std::size_t size() const { return tree_.size() - 1; }

  // Draw `k` distinct indices by successive weighted draws without
  // replacement (k ≤ the number of positive-weight entries). The result is
  // in DRAW order, not sorted; consumes exactly k uniforms from `rng`.
  std::vector<std::uint32_t> sample(std::size_t k, Rng& rng);

  // Heap bytes the sampler holds (part of pop.descriptors.bytes).
  std::size_t bytes() const { return heap_bytes(tree_) + heap_bytes(drawn_); }

 private:
  void add(std::size_t i, Scalar delta);  // 0-based point update
  Scalar total() const;                   // current sum of live weights
  // Positive weight and not drawn yet in the current cohort.
  bool live(std::size_t i) const;
  // Largest index whose prefix-sum (exclusive) is <= target; the classic
  // Fenwick descend, O(log n).
  std::size_t find(Scalar target) const;

  WeightFn weight_;
  std::vector<Scalar> tree_;          // 1-based Fenwick partial sums
  std::vector<std::uint32_t> drawn_;  // this cohort's draws, ascending
  std::size_t mask_ = 0;              // highest power of two <= size
  std::size_t num_positive_ = 0;
};

}  // namespace hfl::pop

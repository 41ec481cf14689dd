// Mini-batch iterator over a worker's local sample indices.
//
// Cycles forever: when an epoch is exhausted the index order is reshuffled
// with the batcher's own RNG (so per-worker streams are independent and the
// whole simulation is deterministic). Batch size is capped at the local
// sample count.
//
// A batcher can be re-pointed in place: reseed() is the constructor's twin
// and load() resumes a checkpointed stream. Both reuse the index storage, so
// the population subsystem (src/pop/cohort_store.h) recycles one batcher
// across the many workers a cohort slot hosts without allocating.
#pragma once

#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"

namespace hfl::data {

class Batcher {
 public:
  Batcher(const Dataset& dataset, const std::vector<std::size_t>& indices,
          std::size_t batch_size, Rng rng);

  // Unbound: draws are empty until reseed() or load() gives the batcher an
  // index order.
  Batcher(const Dataset& dataset, std::size_t batch_size);

  // In-place twin of the first constructor: same checks, same initial
  // shuffle, reusing this batcher's index storage.
  void reseed(const std::vector<std::size_t>& indices, Rng rng);

  // Resume a checkpointed stream in place: the index order becomes
  // index_at(0), …, index_at(n − 1) (no shuffle), the cursor `cursor` and
  // the shuffle RNG `rng`. Same range checks as the constructor, plus
  // cursor ≤ n.
  template <typename IndexAt>
  void load(std::size_t n, IndexAt&& index_at, std::size_t cursor,
            const RngState& rng) {
    indices_.resize(n);
    for (std::size_t i = 0; i < n; ++i) indices_[i] = index_at(i);
    HFL_CHECK(cursor <= n, "batcher checkpoint cursor out of range");
    cursor_ = cursor;
    rng_ = Rng::from_state(rng);
    bind();
  }

  // Fills `x` (B, *sample_shape) and `y` with the next mini-batch.
  void next(Tensor& x, std::vector<std::size_t>& y);

  // Zero-copy variant: fills `rows` with one pointer per sample into the
  // dataset's contiguous storage instead of gathering into `x`. Advances the
  // cursor/shuffle stream exactly like next() — the two forms are
  // interchangeable draw-for-draw. Pointers stay valid for the dataset's
  // lifetime.
  void next_rows(std::vector<const Scalar*>& rows, std::vector<std::size_t>& y);

  // Complete stream position: the current (shuffled) index order, the
  // cursor into it and the shuffle RNG. load() with these three resumes the
  // batch sequence bit-exactly.
  const std::vector<std::size_t>& indices() const { return indices_; }
  std::size_t cursor() const { return cursor_; }
  RngState rng_state() const { return rng_.save_state(); }

  std::size_t num_samples() const { return indices_.size(); }
  std::size_t batch_size() const { return batch_size_; }

 private:
  // Validate the bound index order and cap the batch size at it.
  void bind();

  const Dataset* dataset_;
  std::vector<std::size_t> indices_;
  std::size_t requested_batch_;
  std::size_t batch_size_ = 0;
  std::size_t cursor_ = 0;
  Rng rng_{0};
  std::vector<std::size_t> batch_scratch_;
};

}  // namespace hfl::data

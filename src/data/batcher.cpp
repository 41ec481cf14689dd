#include "src/data/batcher.h"

#include <algorithm>

namespace hfl::data {

Batcher::Batcher(const Dataset& dataset,
                 const std::vector<std::size_t>& indices,
                 std::size_t batch_size, Rng rng)
    : Batcher(dataset, batch_size) {
  reseed(indices, std::move(rng));
}

Batcher::Batcher(const Dataset& dataset, std::size_t batch_size)
    : dataset_(&dataset), requested_batch_(batch_size) {
  HFL_CHECK(batch_size > 0, "batch size must be positive");
}

void Batcher::reseed(const std::vector<std::size_t>& indices, Rng rng) {
  indices_.assign(indices.begin(), indices.end());
  cursor_ = 0;
  rng_ = std::move(rng);
  bind();
  rng_.shuffle(indices_);
}

void Batcher::bind() {
  HFL_CHECK(!indices_.empty(), "batcher needs at least one sample");
  for (const std::size_t i : indices_) {
    HFL_CHECK(i < dataset_->size(), "batcher index out of dataset range");
  }
  batch_size_ = std::min(requested_batch_, indices_.size());
}

void Batcher::next(Tensor& x, std::vector<std::size_t>& y) {
  batch_scratch_.clear();
  for (std::size_t b = 0; b < batch_size_; ++b) {
    if (cursor_ == indices_.size()) {
      rng_.shuffle(indices_);
      cursor_ = 0;
    }
    batch_scratch_.push_back(indices_[cursor_++]);
  }
  dataset_->gather(batch_scratch_, x, y);
}

void Batcher::next_rows(std::vector<const Scalar*>& rows,
                        std::vector<std::size_t>& y) {
  rows.clear();
  y.clear();
  for (std::size_t b = 0; b < batch_size_; ++b) {
    if (cursor_ == indices_.size()) {
      rng_.shuffle(indices_);
      cursor_ = 0;
    }
    const std::size_t idx = indices_[cursor_++];
    rows.push_back(dataset_->features(idx).data());
    y.push_back(dataset_->label(idx));
  }
}

}  // namespace hfl::data

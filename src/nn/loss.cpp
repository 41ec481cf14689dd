#include "src/nn/loss.h"

#include <algorithm>
#include <cmath>

namespace hfl::nn {

void SoftmaxCrossEntropy::add_row(Scalar* row, std::size_t K,
                                  std::size_t label, Scalar& total) const {
  Scalar mx = row[0];
  for (std::size_t j = 1; j < K; ++j) mx = std::max(mx, row[j]);
  Scalar denom = 0;
  for (std::size_t j = 0; j < K; ++j) {
    row[j] = std::exp(row[j] - mx);
    denom += row[j];
  }
  const Scalar inv = 1.0 / denom;
  for (std::size_t j = 0; j < K; ++j) row[j] *= inv;
  // Clamp to avoid -inf when a probability underflows to zero.
  total += -std::log(std::max(row[label], Scalar{1e-300}));
}

void MseOnOneHot::add_row(Scalar* row, std::size_t K, std::size_t label,
                          Scalar& total) const {
  for (std::size_t j = 0; j < K; ++j) {
    const Scalar target = (j == label) ? 1.0 : 0.0;
    const Scalar d = row[j] - target;
    total += 0.5 * d * d;
  }
}

}  // namespace hfl::nn

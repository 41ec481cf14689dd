// ReLU activation: max(x, 0) elementwise, gradient masked where x ≤ 0.
// Stateless; the cohort plan runs it (src/nn/cohort.cpp).
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class ReLU final : public Layer {
 public:
  std::string kind() const override { return "relu"; }
};

}  // namespace hfl::nn

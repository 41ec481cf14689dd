// Flatten: (B, d1, d2, ...) -> (B, d1*d2*...). A reshape; the cohort plan
// moves no data for it.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class Flatten final : public Layer {
 public:
  std::string kind() const override { return "flatten"; }
};

}  // namespace hfl::nn

#include "src/nn/dense.h"

#include <cmath>

namespace hfl::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             InitScheme init)
    : in_(in_features),
      out_(out_features),
      init_(init),
      weight_({out_, in_}),
      bias_({out_}) {
  HFL_CHECK(in_ > 0 && out_ > 0, "dense layer dims must be positive");
}

void Dense::init_params(Rng& rng) {
  if (init_ == InitScheme::kZero) {
    weight_.fill(0.0);
    bias_.fill(0.0);
    return;
  }
  const Scalar stddev = init_ == InitScheme::kHe
                            ? std::sqrt(2.0 / static_cast<Scalar>(in_))
                            : std::sqrt(1.0 / static_cast<Scalar>(in_));
  for (auto& v : weight_.data()) v = rng.normal(0.0, stddev);
  bias_.fill(0.0);
}

}  // namespace hfl::nn

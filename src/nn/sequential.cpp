#include "src/nn/sequential.h"

namespace hfl::nn {

void Sequential::add(LayerPtr layer) {
  HFL_CHECK(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
}

const Layer& Sequential::layer(std::size_t i) const {
  HFL_CHECK(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* p : l->params()) out.push_back(p);
  }
  return out;
}

void Sequential::init_params(Rng& rng) {
  for (auto& l : layers_) l->init_params(rng);
}

}  // namespace hfl::nn

#include "src/nn/residual.h"

namespace hfl::nn {

Residual::Residual(LayerPtr inner) : inner_(std::move(inner)) {
  HFL_CHECK(inner_ != nullptr, "residual inner branch must not be null");
}

Residual::Residual(LayerPtr inner, LayerPtr shortcut)
    : inner_(std::move(inner)), shortcut_(std::move(shortcut)) {
  HFL_CHECK(inner_ != nullptr, "residual inner branch must not be null");
}

std::vector<Tensor*> Residual::params() {
  std::vector<Tensor*> out = inner_->params();
  if (shortcut_) {
    for (Tensor* p : shortcut_->params()) out.push_back(p);
  }
  return out;
}

void Residual::init_params(Rng& rng) {
  inner_->init_params(rng);
  if (shortcut_) shortcut_->init_params(rng);
}

}  // namespace hfl::nn

// Sequential container: a chain of layers applied in order.
//
// Also a Layer itself, so residual blocks can nest a Sequential as their
// inner branch.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  // Chaining-friendly: seq.add<Dense>(10, 5).add<ReLU>() is not supported to
  // keep ownership obvious; use repeated add() calls instead.
  void add(LayerPtr layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const;

  std::string kind() const override { return "sequential"; }
  std::vector<Tensor*> params() override;
  void init_params(Rng& rng) override;

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace hfl::nn

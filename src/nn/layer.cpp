#include "src/nn/layer.h"

namespace hfl::nn {

std::size_t Layer::num_params() {
  std::size_t n = 0;
  for (Tensor* p : params()) n += p->size();
  return n;
}

}  // namespace hfl::nn

// Loss functions.
//
// Both losses score (B, K) logits against integer class labels; the batch
// loss is the mean per-sample loss. Each loss is one per-sample routine,
// `add_row`, that both consumers run: the cohort plan's loss stage
// (src/nn/cohort.cpp), which turns its output into the gradient with respect
// to the logits, and nn::evaluate_predictions (src/nn/model.h), which scores
// held-out logits. Losses are stateless, so one instance serves every thread.
//
// * SoftmaxCrossEntropy — used by logistic regression, CNN, MiniVGG and
//   MiniResNet (the paper's classification models).
// * MseOnOneHot — mean squared error against the one-hot label encoding,
//   matching the paper's "linear regression" configuration (MSE loss, accuracy
//   read off via row argmax).
#pragma once

#include <memory>

#include "src/common/types.h"

namespace hfl::nn {

class Loss {
 public:
  virtual ~Loss() = default;
  // One sample: adds its loss to `total`, the batch's running sum in sample
  // order, and leaves in `row` (its K logits on entry) the values v with
  // d(sample loss)/d(logits) = v − onehot(label): the softmax probabilities,
  // or the logits themselves for the MSE. `label` must be < K.
  virtual void add_row(Scalar* row, std::size_t K, std::size_t label,
                       Scalar& total) const = 0;
};

using LossPtr = std::shared_ptr<const Loss>;

class SoftmaxCrossEntropy final : public Loss {
 public:
  void add_row(Scalar* row, std::size_t K, std::size_t label,
               Scalar& total) const override;
};

class MseOnOneHot final : public Loss {
 public:
  void add_row(Scalar* row, std::size_t K, std::size_t label,
               Scalar& total) const override;
};

}  // namespace hfl::nn

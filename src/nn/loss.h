// Loss functions.
//
// Both losses consume a (B, K) prediction tensor and integer class labels and
// report the mean per-sample loss; `backward` returns d(mean loss)/d(pred).
//
// * SoftmaxCrossEntropy — used by logistic regression, CNN, MiniVGG and
//   MiniResNet (the paper's classification models).
// * MseOnOneHot — mean squared error against the one-hot label encoding,
//   matching the paper's "linear regression" configuration (MSE loss, accuracy
//   read off via row argmax).
#pragma once

#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace hfl::nn {

class Loss {
 public:
  virtual ~Loss() = default;
  virtual std::string kind() const = 0;
  // Mean loss over the batch. Caches what backward needs.
  virtual Scalar forward(const Tensor& pred,
                         const std::vector<std::size_t>& labels) = 0;
  // Gradient of the mean loss with respect to `pred`.
  virtual Tensor backward() = 0;
  // A new instance of the same loss with no cached state (one per thread
  // when several threads score predictions concurrently).
  virtual std::unique_ptr<Loss> clone() const = 0;
};

using LossPtr = std::unique_ptr<Loss>;

class SoftmaxCrossEntropy final : public Loss {
 public:
  std::string kind() const override { return "softmax_ce"; }
  Scalar forward(const Tensor& pred,
                 const std::vector<std::size_t>& labels) override;
  Tensor backward() override;
  std::unique_ptr<Loss> clone() const override {
    return std::make_unique<SoftmaxCrossEntropy>();
  }

 private:
  Tensor probs_;
  std::vector<std::size_t> labels_;
};

class MseOnOneHot final : public Loss {
 public:
  std::string kind() const override { return "mse_onehot"; }
  Scalar forward(const Tensor& pred,
                 const std::vector<std::size_t>& labels) override;
  Tensor backward() override;
  std::unique_ptr<Loss> clone() const override {
    return std::make_unique<MseOnOneHot>();
  }

 private:
  Tensor pred_;
  std::vector<std::size_t> labels_;
};

}  // namespace hfl::nn

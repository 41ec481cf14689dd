#include "src/nn/model.h"

namespace hfl::nn {

Model::Model(std::unique_ptr<Sequential> net, LossPtr loss,
             std::vector<std::size_t> sample_shape)
    : net_(std::move(net)),
      loss_(std::move(loss)),
      sample_shape_(std::move(sample_shape)) {
  HFL_CHECK(net_ != nullptr, "model network must not be null");
  HFL_CHECK(loss_ != nullptr, "model loss must not be null");
  param_tensors_ = net_->params();
  for (const Tensor* p : param_tensors_) total_params_ += p->size();
}

void Model::init_params(Rng& rng) { net_->init_params(rng); }

void Model::get_params(Vec& out) const {
  out.resize(total_params_);
  std::size_t off = 0;
  for (const Tensor* p : param_tensors_) {
    std::copy(p->data().begin(), p->data().end(), out.begin() + off);
    off += p->size();
  }
}

Vec Model::get_params() const {
  Vec out;
  get_params(out);
  return out;
}

void Model::set_params(std::span<const Scalar> params) {
  HFL_CHECK(params.size() == total_params_,
            "set_params size mismatch: expected " +
                std::to_string(total_params_) + ", got " +
                std::to_string(params.size()));
  std::size_t off = 0;
  for (Tensor* p : param_tensors_) {
    std::copy(params.begin() + off, params.begin() + off + p->size(),
              p->data().begin());
    off += p->size();
  }
}

EvalResult evaluate_predictions(const Loss& loss, const Tensor& pred,
                                const std::vector<std::size_t>& labels) {
  HFL_CHECK(pred.rank() == 2, "loss expects (B, K) predictions");
  HFL_CHECK(pred.dim(0) == labels.size(), "label count must match batch size");
  const std::size_t B = pred.dim(0), K = pred.dim(1);
  HFL_CHECK(K > 0, "predictions need at least one class");
  Vec row(K);
  Scalar total = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < B; ++i) {
    const Scalar* logits = pred.raw() + i * K;
    HFL_CHECK(labels[i] < K, "label out of class range");
    std::size_t best = 0;
    for (std::size_t j = 1; j < K; ++j) {
      if (logits[j] > logits[best]) best = j;
    }
    if (best == labels[i]) ++correct;
    std::copy(logits, logits + K, row.begin());
    loss.add_row(row.data(), K, labels[i], total);
  }
  EvalResult result;
  result.loss = total / static_cast<Scalar>(B);
  result.accuracy =
      labels.empty() ? 0.0
                     : static_cast<Scalar>(correct) /
                           static_cast<Scalar>(labels.size());
  return result;
}

}  // namespace hfl::nn

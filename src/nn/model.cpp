#include "src/nn/model.h"

#include "src/tensor/tensor_ops.h"

namespace hfl::nn {

Model::Model(std::unique_ptr<Sequential> net, LossPtr loss,
             std::vector<std::size_t> sample_shape)
    : net_(std::move(net)),
      loss_(std::move(loss)),
      sample_shape_(std::move(sample_shape)) {
  HFL_CHECK(net_ != nullptr, "model network must not be null");
  HFL_CHECK(loss_ != nullptr, "model loss must not be null");
  param_tensors_ = net_->params();
  grad_tensors_ = net_->grads();
  HFL_CHECK(param_tensors_.size() == grad_tensors_.size(),
            "param/grad tensor lists must align");
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

void Model::zero_grads() {
  for (Tensor* g : grad_tensors_) g->fill(0.0);
}

void Model::get_grads(Vec& out) const {
  out.resize(total_params_);
  std::size_t off = 0;
  for (const Tensor* g : grad_tensors_) {
    std::copy(g->data().begin(), g->data().end(), out.begin() + off);
    off += g->size();
  }
}

Scalar Model::forward_backward(const Tensor& x,
                               const std::vector<std::size_t>& labels) {
  Tensor pred = net_->forward(x, /*train=*/true);
  const Scalar loss = loss_->forward(pred, labels);
  net_->backward(loss_->backward());
  return loss;
}

Scalar Model::loss_and_gradient(std::span<const Scalar> params,
                                const Tensor& x,
                                const std::vector<std::size_t>& labels,
                                Vec& grad) {
  set_params(params);
  zero_grads();
  const Scalar loss = forward_backward(x, labels);
  get_grads(grad);
  return loss;
}

Tensor Model::predict(const Tensor& x) {
  return net_->forward(x, /*train=*/false);
}

EvalResult Model::evaluate(const Tensor& x,
                           const std::vector<std::size_t>& labels) {
  return evaluate_predictions(*loss_, predict(x), labels);
}

EvalResult evaluate_predictions(Loss& loss, const Tensor& pred,
                                const std::vector<std::size_t>& labels) {
  EvalResult result;
  result.loss = loss.forward(pred, labels);
  std::vector<std::size_t> argmax;
  ops::argmax_rows(pred, argmax);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (argmax[i] == labels[i]) ++correct;
  }
  result.accuracy =
      labels.empty() ? 0.0
                     : static_cast<Scalar>(correct) /
                           static_cast<Scalar>(labels.size());
  return result;
}

}  // namespace hfl::nn

#include "src/nn/gradcheck.h"

#include <algorithm>
#include <cmath>

#include "src/nn/cohort.h"

namespace hfl::nn {

GradCheckResult check_gradients(const Model& model, const Vec& params,
                                const Tensor& x,
                                const std::vector<std::size_t>& labels,
                                Scalar step, std::size_t max_coords) {
  const auto plan = CohortModel::create(model);
  HFL_CHECK(params.size() == plan->num_params(),
            "gradcheck: parameter count does not match the model");
  HFL_CHECK(!labels.empty() && x.size() == labels.size() * plan->sample_elems(),
            "gradcheck: the batch does not match the model input");

  Vec analytic(params.size());
  CohortItem item;
  item.params = params.data();
  item.x = x.raw();
  item.y = &labels;
  item.grad = analytic.data();
  plan->gradient({&item, 1});

  Tensor pred;
  const auto loss_at = [&](const Vec& p) {
    plan->predict(p.data(), x.raw(), labels.size(), pred);
    return evaluate_predictions(plan->loss(), pred, labels).loss;
  };

  const std::size_t n = params.size();
  const std::size_t stride = std::max<std::size_t>(1, n / max_coords);

  GradCheckResult result;
  Vec perturbed = params;
  for (std::size_t i = 0; i < n; i += stride) {
    perturbed[i] = params[i] + step;
    const Scalar loss_plus = loss_at(perturbed);
    perturbed[i] = params[i] - step;
    const Scalar loss_minus = loss_at(perturbed);
    perturbed[i] = params[i];

    const Scalar numeric = (loss_plus - loss_minus) / (2 * step);
    const Scalar abs_err = std::abs(numeric - analytic[i]);
    const Scalar denom =
        std::max({std::abs(numeric), std::abs(analytic[i]), Scalar{1e-8}});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
    ++result.checked;
  }
  return result;
}

}  // namespace hfl::nn

// Numerical gradient checking.
//
// Verifies the compiled cohort plan's analytic gradient (src/nn/cohort.h) for
// a model's architecture against central finite differences of its loss.
// Used by the test suite on every stage kind; kept in the library (not the
// tests) so downstream users can validate custom architectures the same way.
#pragma once

#include "src/nn/model.h"

namespace hfl::nn {

struct GradCheckResult {
  Scalar max_abs_error = 0;    // max_i |analytic_i - numeric_i|
  Scalar max_rel_error = 0;    // relative to max(|a|, |n|, eps)
  std::size_t checked = 0;     // number of coordinates compared
};

// Compares analytic and numeric gradients of `model`'s architecture at
// `params` on the batch (x, labels); x holds labels.size() samples.
// `max_coords` bounds how many (deterministically strided) coordinates are
// probed, keeping checks on conv models fast.
GradCheckResult check_gradients(const Model& model, const Vec& params,
                                const Tensor& x,
                                const std::vector<std::size_t>& labels,
                                Scalar step = 1e-5,
                                std::size_t max_coords = 200);

}  // namespace hfl::nn

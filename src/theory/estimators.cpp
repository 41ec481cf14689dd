#include "src/theory/estimators.h"

#include <algorithm>

#include "src/common/vec_ops.h"
#include "src/nn/cohort.h"

namespace hfl::theory {

namespace {

// Batch gradient of worker w's local loss at `params`, using (up to)
// batch_size deterministic samples from its partition.
void worker_gradient(nn::CohortModel& plan, const data::Dataset& train,
                     const std::vector<std::size_t>& part,
                     std::size_t batch_size, const Vec& params, Vec& grad) {
  const std::size_t n = std::min(batch_size, part.size());
  std::vector<std::size_t> idx(part.begin(), part.begin() + n);
  Tensor x;
  std::vector<std::size_t> y;
  train.gather(idx, x, y);
  nn::CohortItem item;
  item.params = params.data();
  item.x = x.raw();
  item.y = &y;
  item.grad = grad.data();
  plan.gradient({&item, 1});
}

}  // namespace

AssumptionEstimates estimate_assumptions(const nn::ModelFactory& factory,
                                         const data::Dataset& train,
                                         const data::Partition& partition,
                                         const fl::Topology& topo,
                                         const EstimatorOptions& options) {
  HFL_CHECK(partition.size() == topo.num_workers(),
            "partition/topology mismatch");
  HFL_CHECK(options.probe_points >= 2, "need at least two probe points");

  Rng rng(options.seed);
  auto model = factory();
  model->init_params(rng);
  const Vec x0 = model->get_params();
  const std::size_t dim = x0.size();
  const auto plan = nn::CohortModel::create(*model);

  // Data weights.
  std::size_t total = 0;
  std::vector<std::size_t> edge_total(topo.num_edges(), 0);
  for (std::size_t w = 0; w < partition.size(); ++w) {
    total += partition[w].size();
    edge_total[topo.edge_of_worker(w)] += partition[w].size();
  }

  AssumptionEstimates est;
  est.delta_edges.assign(topo.num_edges(), 0.0);
  est.edge_weights.resize(topo.num_edges());
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    est.edge_weights[e] = static_cast<Scalar>(edge_total[e]) /
                          static_cast<Scalar>(total);
  }

  // Probe points: x0 plus random perturbations.
  std::vector<Vec> points(options.probe_points, x0);
  for (std::size_t p = 1; p < points.size(); ++p) {
    for (auto& v : points[p]) v += rng.normal(0.0, options.point_spread);
  }

  std::vector<Vec> worker_grads(topo.num_workers(), Vec(dim, 0.0));
  std::vector<Vec> global_grads(points.size());  // per probe point
  Vec edge_grad(dim, 0.0), diff(dim, 0.0);

  for (std::size_t p = 0; p < points.size(); ++p) {
    // Per-worker gradients at the shared point.
    for (std::size_t w = 0; w < topo.num_workers(); ++w) {
      worker_gradient(*plan, train, partition[w], options.batch_size,
                      points[p], worker_grads[w]);
      est.rho = std::max(est.rho, vec::norm(worker_grads[w]));
    }
    // Edge-level diversity δℓ = Σ_i (D_i/Dℓ) ||g_i − gℓ||.
    global_grads[p].assign(dim, 0.0);
    for (std::size_t e = 0; e < topo.num_edges(); ++e) {
      edge_grad.assign(dim, 0.0);
      for (const std::size_t w : topo.workers_of_edge(e)) {
        const Scalar wgt = static_cast<Scalar>(partition[w].size()) /
                           static_cast<Scalar>(edge_total[e]);
        vec::axpy(wgt, worker_grads[w], edge_grad);
      }
      Scalar d_edge = 0;
      for (const std::size_t w : topo.workers_of_edge(e)) {
        const Scalar wgt = static_cast<Scalar>(partition[w].size()) /
                           static_cast<Scalar>(edge_total[e]);
        vec::linear_combination(1.0, worker_grads[w], -1.0, edge_grad, diff);
        d_edge += wgt * vec::norm(diff);
      }
      est.delta_edges[e] = std::max(est.delta_edges[e], d_edge);
      vec::axpy(est.edge_weights[e], edge_grad, global_grads[p]);
    }
  }

  // δ — weighted average of the per-edge levels.
  for (std::size_t e = 0; e < topo.num_edges(); ++e) {
    est.delta_global += est.edge_weights[e] * est.delta_edges[e];
  }

  // β — max gradient-difference ratio over probe-point pairs, using the
  // global gradient (F is β-smooth whenever every F_{i,ℓ} is).
  for (std::size_t a = 0; a < points.size(); ++a) {
    for (std::size_t b = a + 1; b < points.size(); ++b) {
      const Scalar dx = vec::distance(points[a], points[b]);
      if (dx < 1e-12) continue;
      vec::linear_combination(1.0, global_grads[a], -1.0, global_grads[b],
                              diff);
      est.beta = std::max(est.beta, vec::norm(diff) / dx);
    }
  }
  return est;
}

}  // namespace hfl::theory

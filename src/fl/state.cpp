#include "src/fl/state.h"

#include <algorithm>

#include "src/fl/availability.h"
#include "src/nn/cohort.h"
#include "src/obs/registry.h"

namespace hfl::fl {

Scalar WorkerState::compute_gradient(const Vec& at) {
  if (pending_grad_at_ != nullptr) {
    // The engine prefetched this iteration's gradient through the cohort
    // executor; grad_/last_loss already hold the result and the batch was
    // already drawn. Consume it — but only for the promised parameter point.
    HFL_CHECK(pending_grad_at_ == at.data(),
              "prefetched gradient consumed at a different parameter point — "
              "the algorithm violates local_gradient_prefetchable()");
    pending_grad_at_ = nullptr;
    return last_loss;
  }
  HFL_CHECK(batcher, "worker state not initialized");
  const Vec* points[] = {&at};
  Vec* outs[] = {&grad_};
  last_loss = gradients_on_draw(*batcher, points, outs, 1);
  return last_loss;
}

void WorkerState::draw_batch(const Tensor*& x,
                             const std::vector<std::size_t>*& y) {
  HFL_CHECK(batcher, "worker state not initialized");
  HFL_CHECK(pending_grad_at_ == nullptr,
            "draw_batch with an unconsumed prefetched gradient");
  batcher->next(batch_x_, batch_y_);
  x = &batch_x_;
  y = &batch_y_;
}

void WorkerState::draw_batch_rows(const Scalar* const*& rows,
                                  const std::vector<std::size_t>*& y) {
  HFL_CHECK(batcher, "worker state not initialized");
  HFL_CHECK(pending_grad_at_ == nullptr,
            "draw_batch with an unconsumed prefetched gradient");
  batcher->next_rows(batch_rows_, batch_y_);
  rows = batch_rows_.data();
  y = &batch_y_;
}

Scalar* WorkerState::gradient_buffer() {
  HFL_CHECK(plan != nullptr, "worker state has no gradient plan bound");
  grad_.resize(plan->num_params());
  return grad_.data();
}

void WorkerState::deposit_gradient(const Vec& at) {
  pending_grad_at_ = at.data();
}

const Vec& WorkerState::compute_gradient_pair(const Vec& at,
                                              const Vec& anchor) {
  HFL_CHECK(batcher, "worker state not initialized");
  HFL_CHECK(pending_grad_at_ == nullptr,
            "paired gradient evaluation with a pending prefetched gradient — "
            "the algorithm must report local_gradient_prefetchable() == "
            "false");
  const Vec* points[] = {&anchor, &at};
  Vec* outs[] = {&anchor_grad_, &grad_};
  last_loss = gradients_on_draw(*batcher, points, outs, 2);
  return anchor_grad_;
}

Scalar WorkerState::probe_gradient(const Vec& at, Vec& out) {
  HFL_CHECK(aux_batcher, "worker state not initialized");
  const Vec* points[] = {&at};
  Vec* outs[] = {&out};
  return gradients_on_draw(*aux_batcher, points, outs, 1);
}

Scalar WorkerState::gradients_on_draw(data::Batcher& stream,
                                      const Vec* const* points,
                                      Vec* const* outs, std::size_t n) {
  HFL_CHECK(plan != nullptr, "worker state has no gradient plan bound");
  HFL_CHECK(n <= 2, "at most two gradients per draw");
  const bool rows = plan->supports_row_gather();
  if (rows) {
    stream.next_rows(batch_rows_, batch_y_);
  } else {
    stream.next(batch_x_, batch_y_);
  }
  nn::CohortItem items[2];
  for (std::size_t i = 0; i < n; ++i) {
    HFL_CHECK(points[i]->size() == plan->num_params(),
              "gradient point size does not match the model");
    outs[i]->resize(plan->num_params());
    items[i].params = points[i]->data();
    items[i].grad = outs[i]->data();
    items[i].y = &batch_y_;
    if (rows) {
      items[i].x_rows = batch_rows_.data();
    } else {
      items[i].x = batch_x_.raw();
    }
  }
  plan->gradient({items, n});
  if (obs::enabled()) {
    static obs::Counter& fused =
        obs::Registry::global().counter("engine.cohort.fused_grads");
    fused.add(n);
  }
  return items[n - 1].loss;
}

void WorkerSlice::reset_interval_accumulators() {
  for (const IntervalAccumulator& acc : kIntervalAccumulators) {
    vec::fill(this->*acc.vec, 0.0);
  }
}

namespace {

// Gather scratch for the fused aggregation below: pointer + weight arrays
// sized by the fleet, reused across sync rounds. Thread-local because the
// engine runs edge_sync for distinct edges concurrently on its thread pool
// (src/fl/engine.cpp), so several aggregations may gather at once — each on
// its own thread's copy. The parallel element-range reduction below reads
// the gathering thread's arrays from pool workers, which is safe: the
// gathering thread blocks in parallel_for until the reduction finishes.
thread_local std::vector<const Vec*> tl_agg_vecs;
thread_local Vec tl_agg_weights;

// Serial or element-range parallel fused weighted sum; the split never
// shows up in the bits (see for_each_range).
void weighted_sum_dispatch(std::span<const Vec* const> vecs,
                           std::span<const Scalar> weights, Vec& out,
                           ThreadPool* pool) {
  const std::size_t n = vecs.empty() ? 0 : vecs[0]->size();
  out.resize(n);
  for_each_range(pool, n, [&](std::size_t lo, std::size_t hi) {
    vec::weighted_sum_range(vecs, weights, out, lo, hi);
  });
}

}  // namespace

void aggregate_edge(const Topology& topo, std::size_t edge,
                    const WorkerSet& workers, WorkerVecAccessor acc,
                    Vec& out) {
  const auto& ids = topo.workers_of_edge(edge);
  HFL_CHECK(!ids.empty(), "edge has no workers");
  tl_agg_vecs.clear();
  tl_agg_weights.clear();
  for (const WorkerId id : ids) {
    const WorkerState& w = workers[id];
    tl_agg_vecs.push_back(&acc(w));
    tl_agg_weights.push_back(w.weight_in_edge);
  }
  // Fused single pass over all member vectors (vs. one axpy sweep each).
  vec::weighted_sum(std::span<const Vec* const>(tl_agg_vecs), tl_agg_weights,
                    out);
}

void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out) {
  HFL_CHECK(workers.num_materialized() > 0, "no workers to aggregate");
  tl_agg_vecs.clear();
  tl_agg_weights.clear();
  for (const WorkerState& w : workers) {
    tl_agg_vecs.push_back(&acc(w));
    tl_agg_weights.push_back(w.weight_global);
  }
  vec::weighted_sum(std::span<const Vec* const>(tl_agg_vecs), tl_agg_weights,
                    out);
}

void aggregate_edge(const Topology& topo, std::size_t edge,
                    const WorkerSet& workers, WorkerVecAccessor acc, Vec& out,
                    const Participation* part) {
  if (part == nullptr) {
    aggregate_edge(topo, edge, workers, acc, out);
    return;
  }
  const auto& ids = part->active_workers_of_edge(edge);
  HFL_CHECK(!ids.empty(), "edge has no participating workers this interval");
  tl_agg_vecs.clear();
  tl_agg_weights.clear();
  for (const WorkerId id : ids) {
    tl_agg_vecs.push_back(&acc(workers[id]));
    tl_agg_weights.push_back(part->weight_in_edge(id));
  }
  vec::weighted_sum(std::span<const Vec* const>(tl_agg_vecs), tl_agg_weights,
                    out);
}

void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out, const Participation* part) {
  aggregate_global(workers, acc, out, part, nullptr);
}

void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out, const Participation* part, ThreadPool* pool) {
  HFL_CHECK(workers.num_materialized() > 0, "no workers to aggregate");
  if (part != nullptr) {
    HFL_CHECK(part->num_active() > 0, "no participating workers this round");
  }
  // Iterates the materialized states only, in ascending-id order: with a
  // roster every active worker is materialized, so the gather — and
  // therefore the FP summation order — is the same for full and sampled
  // cohorts.
  tl_agg_vecs.clear();
  tl_agg_weights.clear();
  for (const WorkerState& w : workers) {
    if (part != nullptr && !part->worker_active(w.id)) continue;
    tl_agg_vecs.push_back(&acc(w));
    tl_agg_weights.push_back(part != nullptr ? part->weight_global(w.id)
                                             : w.weight_global);
  }
  weighted_sum_dispatch(std::span<const Vec* const>(tl_agg_vecs),
                        tl_agg_weights, out, pool);
}

void aggregate_edges(const std::vector<EdgeState>& edges, EdgeVecAccessor acc,
                     Vec& out, const Participation* part, ThreadPool* pool) {
  tl_agg_vecs.clear();
  tl_agg_weights.clear();
  for (const EdgeState& e : edges) {
    if (!is_edge_active(part, e.id)) continue;
    tl_agg_vecs.push_back(&acc(e));
    tl_agg_weights.push_back(active_edge_weight(part, e));
  }
  HFL_CHECK(!tl_agg_vecs.empty(), "no reachable edges to aggregate");
  weighted_sum_dispatch(std::span<const Vec* const>(tl_agg_vecs),
                        tl_agg_weights, out, pool);
}

const Vec& worker_x(const WorkerState& w) { return w.x; }
const Vec& worker_y(const WorkerState& w) { return w.y; }
const Vec& edge_x_plus(const EdgeState& e) { return e.x_plus; }
const Vec& edge_y_minus(const EdgeState& e) { return e.y_minus; }

}  // namespace hfl::fl

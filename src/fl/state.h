// Mutable per-tier simulation state.
//
// WorkerState mirrors the paper's worker {i, ℓ}: model parameters x, momentum
// parameter y, the interval accumulators that Algorithm 1 line 9 uploads
// (Σ∇F_i and Σy_i, plus Σv_i — v = y_t − y_{t−1} — only for the velocity
// interpretation of eq. (6), see core/hieradmo.h), the worker's data
// streams, and the compiled cohort plan that evaluates its gradients (the
// engine's, shared by every worker, src/nn/cohort.h). The velocity itself
// is no state: the NAG step (core/nag.h) keeps it in a register. EdgeState carries
// the post-aggregation values y_{ℓ−}, y_{ℓ+}, x_{ℓ+} and the currently
// adapted γℓ. CloudState carries the cloud model and the cloud-aggregated
// worker momentum.
//
// Generic algorithm scratch ("extra" slots) lets two-tier baselines store
// their server momenta without widening this struct per algorithm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/common/vec_ops.h"
#include "src/data/batcher.h"
#include "src/fl/topology.h"
#include "src/tensor/tensor.h"

namespace hfl::nn {

class CohortModel;  // src/nn/cohort.h

}  // namespace hfl::nn

namespace hfl::fl {

struct WorkerState {
  WorkerId id = 0;
  std::size_t edge = 0;
  Scalar weight_in_edge = 0;  // D_{i,ℓ} / D_ℓ
  Scalar weight_global = 0;   // D_{i,ℓ} / D
  std::size_t num_samples = 0;

  Vec x;       // worker model parameter x_{i,ℓ}
  Vec y;       // worker momentum parameter y_{i,ℓ}
  Vec grad;    // most recent mini-batch gradient ∇F_i(x^{t−1})
  Scalar last_loss = 0;

  // Interval accumulators (reset at every edge synchronization).
  Vec sum_grad;  // Σ_t ∇F_i(x^t)
  Vec sum_y;     // Σ_t y^t_i
  // Σ_t v^t_i with v^t = y^t − y^{t−1}: sized only by HierAdMo's kVelocity
  // ablation (its init_worker), the one reader; empty otherwise, and the
  // local step then neither reads nor writes it.
  Vec sum_v;

  // Gradient evaluation: the engine binds its plan onto every state the
  // cohort provider materializes (counted under engine.cohort.fused_grads).
  nn::CohortModel* plan = nullptr;
  std::unique_ptr<data::Batcher> batcher;
  std::unique_ptr<data::Batcher> aux_batcher;  // for gradient probes (Mime)

  // Named algorithm-specific vectors (server momentum copies, etc.).
  std::map<std::string, Vec> extra;

  // Draw the next mini-batch and compute the gradient of the local loss at
  // `at`; stores it in `grad` and returns the batch loss. Through the plan
  // the draw is zero-copy when the plan reads dataset rows in place
  // (CohortModel::supports_row_gather) — the same stream advancement either
  // way.
  //
  // Fused-path interplay: if the engine has prefetched this iteration's batch
  // and deposited its gradient (draw_batch + deposit_gradient below), the
  // deposit is consumed instead of re-running the model — but ONLY when `at`
  // is the exact vector the deposit was computed at (pointer identity with
  // the engine's Algorithm::local_gradient_point). A mismatch fails loudly:
  // it means an algorithm broke the prefetch contract.
  Scalar compute_gradient(const Vec& at);

  // Engine-side half of the fused cohort path (src/fl/engine.cpp). draw_batch
  // advances the main stream exactly like compute_gradient's draw and exposes
  // the batch; deposit_gradient marks `grad`/`last_loss` (already filled by
  // the cohort executor) as the precomputed result for the parameter vector
  // `at`, to be consumed by the next compute_gradient call.
  void draw_batch(const Tensor*& x, const std::vector<std::size_t>*& y);
  // Zero-copy draw for row-gather cohort execution (nn::CohortModel): same
  // stream advancement as draw_batch, but exposes per-sample row pointers
  // into the dataset instead of a gathered tensor. The two draw forms are
  // interchangeable draw-for-draw; the batch size is y->size().
  void draw_batch_rows(const Scalar* const*& rows,
                       const std::vector<std::size_t>*& y);
  void deposit_gradient(const Vec& at);

  // Draw ONE mini-batch and evaluate the gradient at two parameter points on
  // that same batch (paired SVRG-style evaluation: the sampling noise of the
  // two gradients cancels in their difference). `grad` receives ∇F_B(at);
  // `grad_anchor` receives ∇F_B(anchor). Returns the batch loss at `at`.
  Scalar compute_gradient_pair(const Vec& at, const Vec& anchor,
                               Vec& grad_anchor);

  // Gradient probe at arbitrary parameters using the auxiliary batch stream
  // (does not disturb the main stream). Result in `out`.
  Scalar probe_gradient(const Vec& at, Vec& out);

  void reset_interval_accumulators();

 private:
  // Draws one mini-batch from `stream` and evaluates the gradient at each
  // of points[0..n) on it into outs[0..n) in one plan call. Returns the loss
  // at points[n − 1].
  Scalar gradients_on_draw(data::Batcher& stream, const Vec* const* points,
                           Vec* const* outs, std::size_t n);

  Tensor batch_x_;
  std::vector<std::size_t> batch_y_;
  std::vector<const Scalar*> batch_rows_;  // draw_batch_rows scratch
  // Non-null while a prefetched gradient awaits its compute_gradient call;
  // points at the Vec the gradient was evaluated at.
  const Scalar* pending_grad_at_ = nullptr;
};

struct EdgeState {
  std::size_t id = 0;
  Scalar weight_global = 0;  // D_ℓ / D

  Vec x_plus;   // x_{ℓ+}: edge model after the edge momentum update
  Vec y_plus;   // y_{ℓ+}: edge momentum parameter
  Vec y_minus;  // y_{ℓ−}: edge-aggregated worker momentum

  Scalar gamma_edge = 0;       // current (possibly adapted) γℓ
  Scalar last_cos_theta = 0;   // diagnostics: cosθ_{k,ℓ} of the last adaptation
};

struct CloudState {
  Vec x;  // cloud model x
  Vec y;  // cloud-aggregated worker momentum y
  std::map<std::string, Vec> extra;
};

// Id-addressed view over the materialized WorkerStates of a run. The
// states live in a cohort provider's pool (src/pop/cohort_store.h) in
// ascending-id order — every worker for a full cohort, just the sampled
// cohort otherwise — and a population-sized id → slot table locates them.
// Algorithms address workers by GLOBAL id (operator[]) or iterate the
// materialized states in ascending-id order (begin/end). Addressing a
// worker that is not materialized fails loudly — it means engine-side
// roster logic and the cohort store disagree.
class WorkerSet {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  WorkerSet() = default;
  // `slot_of_id` has one entry per population id (kNoSlot = not
  // materialized). Both must outlive the view, which tracks the vector
  // objects, not their buffers.
  WorkerSet(std::vector<WorkerState>* pool,
            const std::vector<std::uint32_t>* slot_of_id)
      : pool_(pool), slot_of_id_(slot_of_id) {}

  // Population size.
  std::size_t size() const { return slot_of_id_->size(); }
  std::size_t num_materialized() const { return pool_->size(); }
  bool is_materialized(std::size_t id) const {
    return (*slot_of_id_)[id] != kNoSlot;
  }

  WorkerState& operator[](std::size_t id) {
    return (*pool_)[slot_of(id)];
  }
  const WorkerState& operator[](std::size_t id) const {
    return (*pool_)[slot_of(id)];
  }

  // Materialized states by pool slot (ascending worker id).
  WorkerState& slot(std::size_t s) { return (*pool_)[s]; }
  const WorkerState& slot(std::size_t s) const { return (*pool_)[s]; }

  // Iterate the materialized states in ascending-id order.
  std::vector<WorkerState>::iterator begin() { return pool_->begin(); }
  std::vector<WorkerState>::iterator end() { return pool_->end(); }
  std::vector<WorkerState>::const_iterator begin() const {
    return pool_->begin();
  }
  std::vector<WorkerState>::const_iterator end() const { return pool_->end(); }

 private:
  std::size_t slot_of(std::size_t id) const {
    const std::uint32_t s = (*slot_of_id_)[id];
    HFL_CHECK(s != kNoSlot,
              "worker " + std::to_string(id) +
                  " is not materialized — roster and cohort store disagree");
    return s;
  }

  std::vector<WorkerState>* pool_ = nullptr;
  const std::vector<std::uint32_t>* slot_of_id_ = nullptr;
};

// Weighted aggregation helpers. The accessor receives a worker/edge and
// returns the vector to aggregate; weights are the paper's D-ratios.
using WorkerVecAccessor = const Vec& (*)(const WorkerState&);
using EdgeVecAccessor = const Vec& (*)(const EdgeState&);

class Participation;  // src/fl/availability.h

// out = Σ_{i ∈ edge ℓ} (D_{i,ℓ}/D_ℓ) · acc(worker_i). Requires every worker
// of the edge to be materialized (full-participation aggregation).
void aggregate_edge(const Topology& topo, std::size_t edge,
                    const WorkerSet& workers, WorkerVecAccessor acc, Vec& out);

// out = Σ_i (D_{i,ℓ}/D) · acc(worker_i) over all materialized workers.
void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out);

// Partial-participation overloads: only surviving workers contribute, with
// their data weights renormalized over the survivors. A null `part` takes
// the exact full-participation path above (bit-identical results). The
// participating set must be non-empty (the engine skips syncs for tiers
// with no survivors).
void aggregate_edge(const Topology& topo, std::size_t edge,
                    const WorkerSet& workers, WorkerVecAccessor acc, Vec& out,
                    const Participation* part);
void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out, const Participation* part);

// Deterministic parallel reduction: the element range of `out` is split
// across the pool's threads and each element is accumulated over the inputs
// in fixed input-index order (vec::weighted_sum_range), so the result is
// bit-identical to the serial overloads for every thread count and partition
// shape. A null pool (or a small problem) takes the serial path — same bits
// either way. Algorithms reach the pool through `Context::pool`.
void aggregate_global(const WorkerSet& workers, WorkerVecAccessor acc,
                      Vec& out, const Participation* part, ThreadPool* pool);

// The element-range split of the deterministic parallel reductions: calls
// body(lo, hi) over a partition of [0, n) — once with the whole range when
// `pool` is null or single-threaded or n is small, else one contiguous
// chunk per pool thread, concurrently. A body whose element values depend
// only on their own index (elementwise kernels, vec::weighted_sum_range and
// vec::weighted_sum_tile) yields the same bits under either split.
template <class Body>
void for_each_range(ThreadPool* pool, std::size_t n, Body&& body) {
  constexpr std::size_t kMinParallelElems = 1 << 14;
  if (pool == nullptr || pool->size() <= 1 || n < kMinParallelElems) {
    body(std::size_t{0}, n);
    return;
  }
  const std::size_t chunks = pool->size();
  const std::size_t chunk = (n + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo < hi) body(lo, hi);
  });
}

// Cloud-tier edge aggregation: out = Σ_{reachable edges ℓ} w_ℓ · acc(edge_ℓ)
// with the weights renormalized over the survivors (full roster when `part`
// is null). Replaces the per-algorithm axpy loops so the cloud reduction
// shares the deterministic parallel path above.
void aggregate_edges(const std::vector<EdgeState>& edges, EdgeVecAccessor acc,
                     Vec& out, const Participation* part,
                     ThreadPool* pool = nullptr);

// Common accessors.
const Vec& worker_x(const WorkerState& w);
const Vec& worker_y(const WorkerState& w);
const Vec& edge_x_plus(const EdgeState& e);
const Vec& edge_y_minus(const EdgeState& e);

}  // namespace hfl::fl

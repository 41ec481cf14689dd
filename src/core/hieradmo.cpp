#include "src/core/hieradmo.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "src/core/nag.h"
#include "src/obs/comm.h"

namespace hfl::core {

HierAdMo::HierAdMo(HierAdMoOptions options) : options_(options) {
  HFL_CHECK(options_.clamp_max > 0 && options_.clamp_max < 1,
            "gamma clamp must be in (0, 1)");
}

std::string HierAdMo::name() const {
  return options_.adaptive ? "HierAdMo" : "HierAdMo-R";
}

void HierAdMo::init(fl::Context& ctx) {
  // Edge states already hold x_{ℓ+} = y_{ℓ+} = x0 (Algorithm 1, lines 1–2).
  for (fl::EdgeState& e : *ctx.edges) {
    e.gamma_edge = options_.adaptive ? 0.0 : ctx.cfg->gamma_edge;
  }
}

void HierAdMo::init_worker(fl::Context&, fl::WorkerState& w) {
  // Σv is read only by the velocity signal; every other run leaves it empty
  // and the local step skips it.
  if (options_.signal == HierAdMoOptions::Signal::kVelocity) {
    w.sum_v.assign(w.x.size(), 0.0);
  }
}

void HierAdMo::local_step(fl::Context& ctx, fl::WorkerState& w) {
  nag_local_step(w, ctx.cfg->eta, ctx.cfg->gamma, /*accumulate=*/true);
}

namespace {

// Width of the tiles the edge and cloud rounds sweep: a tile of every
// vector a round reads or writes stays cache-resident from its aggregation
// to its last write-back. Per-element results do not depend on it.
constexpr std::size_t kSyncTile = 1024;

// Per-thread scratch of the synchronization rounds, reused across rounds so
// that none allocates once grown. Thread-local, never a member: the engine
// runs edge_sync for distinct edges concurrently.
struct SyncScratch {
  std::vector<Scalar*> grad_rows;    // γ pass: each worker's Σ∇F
  std::vector<Scalar*> signal_rows;  // γ pass: what Σ∇F is matched to
  Vec cosines;                       // γ pass: per-worker cosθ
  Vec cross_worker;  // kCrossWorker's edge-aggregated Σ∇F
  std::vector<const Scalar*> y_rows;  // sweep: aggregated momentum inputs
  std::vector<const Scalar*> x_rows;  // sweep: aggregated model inputs
  Vec weights;
  std::vector<fl::WorkerState*> members;  // sweep: the edge's active workers
  // sweep: this tile of the fresh y_{ℓ+}, apart from the edge state because
  // line 13 still reads the previous y_{ℓ+}.
  std::array<Scalar, kSyncTile> y_plus_tile{};
};

SyncScratch& sync_scratch() {
  thread_local SyncScratch scratch;
  return scratch;
}

void copy_tile(std::span<const Scalar> tile, Vec& dst, std::size_t lo) {
  std::copy(tile.begin(), tile.end(), dst.data() + lo);
}

}  // namespace

Scalar HierAdMo::compute_cos_theta(const fl::Context& ctx,
                                   const fl::EdgeState& e) const {
  return cos_theta_pass(ctx, e, /*restart=*/false);
}

Scalar HierAdMo::cos_theta_pass(const fl::Context& ctx, const fl::EdgeState& e,
                                bool restart) const {
  // Under partial participation the γℓ signal comes from the workers that
  // actually uploaded, with their weights renormalized over the survivors.
  const auto& ids = fl::active_workers(ctx.part, *ctx.topo, e.id);
  fl::WorkerSet& workers = *ctx.workers;
  if (ids.empty()) return 0;
  SyncScratch& s = sync_scratch();
  const std::size_t n = workers[ids.front()].sum_grad.size();

  // Footnote-1 reading of eq. (6): the disagreement that matters is each
  // worker's accumulated descent direction vs the edge-aggregated one — a
  // straggler pointing at an obtuse angle to the aggregate pulls γℓ down.
  // The gradient accumulators are used (rather than Σv) because the
  // momentum parameters share a large common component injected by the
  // re-distribution steps, which would saturate the cosine at 1.
  const bool cross =
      options_.signal == HierAdMoOptions::Signal::kCrossWorker;
  if (cross) {
    s.cross_worker.assign(n, 0.0);
    for (const std::size_t id : ids) {
      const fl::WorkerState& w = workers[id];
      vec::axpy(fl::active_weight_in_edge(ctx.part, w), w.sum_grad,
                s.cross_worker);
    }
  }

  // One pass over every worker's accumulators. The literal and velocity
  // signals take cosine(−Σg, signal) without materializing the negated
  // accumulator — bit-identical (IEEE sign symmetry).
  s.grad_rows.clear();
  s.signal_rows.clear();
  for (const std::size_t id : ids) {
    fl::WorkerState& w = workers[id];
    Vec& signal =
        cross ? s.cross_worker
        : options_.signal == HierAdMoOptions::Signal::kVelocity ? w.sum_v
                                                                : w.sum_y;
    HFL_CHECK(w.sum_grad.size() == n && signal.size() == n,
              "cosθ: worker accumulators must share the model size");
    s.grad_rows.push_back(w.sum_grad.data());
    s.signal_rows.push_back(signal.data());
  }
  s.cosines.resize(ids.size());
  if (restart) {
    // Σ∇F and a worker's own signal accumulator restart behind their read;
    // kCrossWorker's shared edge aggregate is scratch and stays.
    vec::cosines_clear(s.grad_rows, s.signal_rows, n, /*negate=*/!cross,
                       /*clear_ys=*/!cross, s.cosines);
  } else {
    const Scalar* const* grad_rows = s.grad_rows.data();
    const Scalar* const* signal_rows = s.signal_rows.data();
    vec::cosines({grad_rows, ids.size()}, {signal_rows, ids.size()}, n,
                 /*negate=*/!cross, s.cosines);
  }

  Scalar cos_theta = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    cos_theta +=
        fl::active_weight_in_edge(ctx.part, workers[ids[k]]) * s.cosines[k];
  }
  return cos_theta;
}

Scalar HierAdMo::clamp_gamma(Scalar cos_theta) const {
  // Eq. (7): 0 for cosθ ≤ 0; cosθ in (0, clamp); clamp above.
  if (cos_theta <= 0) return 0;
  if (cos_theta >= options_.clamp_max) return options_.clamp_max;
  return cos_theta;
}

void HierAdMo::edge_sync(fl::Context& ctx, fl::EdgeState& e, std::size_t) {
  auto& workers = *ctx.workers;
  const auto& ids = fl::active_workers(ctx.part, *ctx.topo, e.id);
  HFL_CHECK(!ids.empty(), "edge has no participating workers this interval");

  // Optional lossy uplink (extension): what the edge sees of each worker's
  // upload is the compressed state. Worker state is overwritten by the
  // redistribution below, so compressing in place models the channel.
  if (options_.upload_compressor) {
    for (const std::size_t id : ids) {
      fl::WorkerState& w = workers[id];
      std::size_t sent = 0;
      sent += options_.upload_compressor->compress(w.x);
      sent += options_.upload_compressor->compress(w.y);
      sent += options_.upload_compressor->compress(w.sum_grad);
      sent += options_.upload_compressor->compress(w.sum_y);
      if (obs::enabled()) {
        // The engine has already counted this worker's 4-vector logical
        // upload; report what the lossy uplink removed so the accountant's
        // wire bytes reflect the compressed payload.
        const std::size_t raw = 4 * w.x.size();
        obs::CommAccountant::global().record_savings(
            obs::Link::kWorkerToEdge, e.id,
            static_cast<std::uint64_t>(raw - sent) * sizeof(Scalar));
      }
    }
  }

  // Line 10: adapt γℓ from the interval accumulators. The interval
  // accumulators restart for the next edge interval: the γℓ pass leaves
  // +0.0 behind each element of Σ∇F and the signal accumulator it reads, so
  // only the ones it does not read are zeroed below.
  if (options_.adaptive) {
    e.last_cos_theta = cos_theta_pass(ctx, e, /*restart=*/true);
    e.gamma_edge = clamp_gamma(e.last_cos_theta);
  } else {
    e.gamma_edge = ctx.cfg->gamma_edge;
  }

  SyncScratch& s = sync_scratch();
  s.y_rows.clear();
  s.x_rows.clear();
  s.weights.clear();
  s.members.clear();
  const std::size_t n = workers[ids.front()].x.size();
  for (const std::size_t id : ids) {
    fl::WorkerState& w = workers[id];
    HFL_CHECK(w.x.size() == n && w.y.size() == n,
              "edge_sync: worker vectors must share the model size");
    if (!options_.adaptive) {
      w.reset_interval_accumulators();
    } else {
      using Signal = HierAdMoOptions::Signal;
      if (options_.signal != Signal::kMomentumValue) vec::fill(w.sum_y, 0.0);
      if (options_.signal != Signal::kVelocity) vec::fill(w.sum_v, 0.0);
    }
    s.y_rows.push_back(w.y.data());
    s.x_rows.push_back(w.x.data());
    s.weights.push_back(fl::active_weight_in_edge(ctx.part, w));
    s.members.push_back(&w);
  }
  HFL_CHECK(e.y_plus.size() == n, "edge_sync: y_plus size mismatch");
  e.y_minus.resize(n);
  e.x_plus.resize(n);

  // Lines 11–15 in one sweep over the active workers' vectors. Every step
  // is elementwise once γℓ is known, so each tile is aggregated,
  // extrapolated and written back before the next is read.
  for (std::size_t lo = 0; lo < n; lo += kSyncTile) {
    const std::size_t len = std::min(n - lo, kSyncTile);
    const std::span<Scalar> y_minus(e.y_minus.data() + lo, len);
    const std::span<Scalar> x_plus(e.x_plus.data() + lo, len);
    const std::span<Scalar> y_plus_new(s.y_plus_tile.data(), len);
    // Line 11: worker momentum edge aggregation y_{ℓ−} = Σ w_i y_i.
    vec::weighted_sum_tile(s.y_rows, s.weights, lo, y_minus);
    // Line 12: y_{ℓ+} = x_{ℓ+}^{(k−1)τ} − Σ w_i (x_{ℓ+}^{(k−1)τ} − x_i^{kτ}),
    // which simplifies to the data-weighted worker model average Σ w_i x_i.
    vec::weighted_sum_tile(s.x_rows, s.weights, lo, y_plus_new);
    // Line 13: x_{ℓ+} = y_{ℓ+} + γℓ (y_{ℓ+} − y_{ℓ+}^{(k−1)τ}), with the
    // y_{ℓ+} state rollover.
    vec::extrapolate_update(y_plus_new, {e.y_plus.data() + lo, len},
                            e.gamma_edge, x_plus);
    // Lines 14–15: re-distribute y_{ℓ−} and x_{ℓ+} to the edge's workers
    // (only the survivors receive; absent workers keep local state per the
    // absent policy).
    for (fl::WorkerState* w : s.members) {
      copy_tile(y_minus, w->y, lo);
      copy_tile(x_plus, w->x, lo);
    }
  }
}

void HierAdMo::cloud_sync(fl::Context& ctx, std::size_t) {
  auto& edges = *ctx.edges;
  auto& workers = *ctx.workers;
  fl::CloudState& cloud = *ctx.cloud;

  // Lines 18–19: cloud aggregation of worker momenta and edge models over
  // the reachable edges, with weights renormalized over the survivors.
  SyncScratch& s = sync_scratch();
  s.y_rows.clear();
  s.x_rows.clear();
  s.weights.clear();
  std::size_t n = 0;
  for (const fl::EdgeState& e : edges) {
    if (!fl::is_edge_active(ctx.part, e.id)) continue;
    if (s.weights.empty()) n = e.y_minus.size();
    HFL_CHECK(e.y_minus.size() == n && e.x_plus.size() == n,
              "cloud_sync: edge vectors must share the model size");
    s.y_rows.push_back(e.y_minus.data());
    s.x_rows.push_back(e.x_plus.data());
    s.weights.push_back(fl::active_edge_weight(ctx.part, e));
  }
  HFL_CHECK(!s.weights.empty(), "no reachable edges to aggregate");
  cloud.y.resize(n);
  cloud.x.resize(n);
  for (fl::WorkerState& w : workers) {
    if (!fl::is_active(ctx.part, w.id)) continue;
    w.y.resize(n);
    w.x.resize(n);
  }

  // One sweep: each tile of cloud.y and cloud.x is built and re-distributed
  // to the edges, then from edges to workers (lines 20–23), before the next
  // tile is read. Element ranges split over the pool as in
  // fl::aggregate_edges — same bits for any thread count. The pool threads
  // read this thread's scratch through the spans; parallel ranges write
  // disjoint elements.
  const std::span<const Scalar* const> y_rows(s.y_rows);
  const std::span<const Scalar* const> x_rows(s.x_rows);
  const std::span<const Scalar> weights(s.weights);
  fl::for_each_range(ctx.pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; t += kSyncTile) {
      const std::size_t len = std::min(hi - t, kSyncTile);
      const std::span<Scalar> y(cloud.y.data() + t, len);
      const std::span<Scalar> x(cloud.x.data() + t, len);
      vec::weighted_sum_tile(y_rows, weights, t, y);
      vec::weighted_sum_tile(x_rows, weights, t, x);
      for (fl::EdgeState& e : edges) {
        if (!fl::is_edge_active(ctx.part, e.id)) continue;
        copy_tile(y, e.y_minus, t);
        copy_tile(x, e.x_plus, t);
      }
      for (fl::WorkerState& w : workers) {
        if (!fl::is_active(ctx.part, w.id)) continue;
        copy_tile(y, w.y, t);
        copy_tile(x, w.x, t);
      }
    }
  });
}

std::unique_ptr<fl::Algorithm> make_hieradmo() {
  return std::make_unique<HierAdMo>();
}

std::unique_ptr<fl::Algorithm> make_hieradmo_r() {
  HierAdMoOptions opt;
  opt.adaptive = false;
  return std::make_unique<HierAdMo>(opt);
}

}  // namespace hfl::core

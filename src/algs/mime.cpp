#include "src/algs/mime.h"

namespace hfl::algs {

void Mime::init(fl::Context& ctx) {
  ctx.cloud->extra.assign(kNumSlots, Vec(ctx.cloud->x.size(), 0.0));
  refresh_server_stats(ctx);
}

void Mime::refresh_server_stats(fl::Context& ctx) {
  // ĝ — the server gradient estimate at the (new) server point, from a few
  // probe batches per reachable worker (absent workers cannot serve probes).
  constexpr std::size_t kProbeBatches = 4;
  Vec& g_hat = ctx.cloud->extra[kServerGradSlot];
  g_hat.assign(g_hat.size(), 0.0);
  // Cohort-estimated mode (cfg.mime_cohort_stats): the reachable workers may
  // be a strict sub-population (cohort sampling), so their global weights sum
  // below 1 — renormalize over the probe set to keep ĝ an unbiased convex
  // combination. Off (the default), total stays exactly 1.0 and the update
  // below is bit-identical to the unnormalized probe.
  Scalar total = 1.0;
  if (ctx.cfg->mime_cohort_stats) {
    Scalar mass = 0;
    for (fl::WorkerState& w : *ctx.workers) {
      if (fl::is_active(ctx.part, w.id)) {
        mass += fl::active_weight_global(ctx.part, w);
      }
    }
    if (mass > 0) total = mass;
  }
  Vec probe;
  for (fl::WorkerState& w : *ctx.workers) {
    if (!fl::is_active(ctx.part, w.id)) continue;
    const Scalar weight = fl::active_weight_global(ctx.part, w) / total;
    for (std::size_t b = 0; b < kProbeBatches; ++b) {
      w.probe_gradient(ctx.cloud->x, probe);
      vec::axpy(weight / kProbeBatches, probe, g_hat);
    }
  }
  // m ← (1−β) ĝ + β m.
  Vec& m = ctx.cloud->extra[kMomentumSlot];
  const Scalar beta = ctx.cfg->gamma;
  vec::axpby(1.0 - beta, g_hat, beta, m);
}

void Mime::local_step(fl::Context& ctx, fl::WorkerState& w) {
  const Vec& m = ctx.cloud->extra[kMomentumSlot];  // frozen during the round
  const Vec& g_hat = ctx.cloud->extra[kServerGradSlot];
  const Scalar beta = ctx.cfg->gamma;
  const Scalar eta = ctx.cfg->eta * lr_scale_;

  if (svrg_correction_) {
    // Paired SVRG evaluation: ∇F_B(x) and ∇F_B(x_server) on the SAME batch,
    // so their difference carries only the drift x − x_server, not sampling
    // noise. g̃ = ∇F_B(x) − ∇F_B(x_server) + ĝ, folded into the descent in
    // one fused pass (no corrected-gradient temporary).
    const Vec& anchor_grad = w.compute_gradient_pair(w.x, ctx.cloud->x);
    vec::descent_svrg(w.x, w.grad(), anchor_grad, g_hat, m, eta, beta);
  } else {
    w.compute_gradient(w.x);
    vec::descent_blend(w.x, w.grad(), m, eta, beta);
  }
}

void Mime::cloud_sync(fl::Context& ctx, std::size_t) {
  // Aggregate straight into the cloud model (no aliasing with worker x's).
  fl::aggregate_global(*ctx.workers, fl::worker_x, ctx.cloud->x, ctx.part,
                       ctx.pool);
  for (fl::WorkerState& w : *ctx.workers) {
    if (fl::is_active(ctx.part, w.id)) w.x = ctx.cloud->x;
  }
  refresh_server_stats(ctx);
}

}  // namespace hfl::algs

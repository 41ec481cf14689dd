#include "src/algs/fedadc.h"

namespace hfl::algs {

void FedAdc::init(fl::Context& ctx) {
  ctx.cloud->extra.assign(kNumSlots, Vec(ctx.cloud->x.size(), 0.0));
}

void FedAdc::local_step(fl::Context& ctx, fl::WorkerState& w) {
  w.compute_gradient(w.x);
  const Vec& u = ctx.cloud->extra[kDriftSlot];  // read-only across workers
  // x ← x − η (∇F + β u), fused drift-corrected descent.
  vec::descent_drift(w.x, w.grad(), u, ctx.cfg->eta, ctx.cfg->gamma);
}

void FedAdc::cloud_sync(fl::Context& ctx, std::size_t) {
  fl::aggregate_global(*ctx.workers, fl::worker_x, x_scratch_, ctx.part,
                       ctx.pool);
  Vec& u = ctx.cloud->extra[kDriftSlot];
  Vec& x = ctx.cloud->x;
  const Scalar inv_step =
      1.0 / (static_cast<Scalar>(ctx.cfg->tau) * ctx.cfg->eta);
  // u ← β u + (1−β)(x − x̄)/(τη); x ← x̄, one fused pass.
  vec::adc_server_update(x, x_scratch_, u, ctx.cfg->gamma_edge, inv_step);
  for (fl::WorkerState& w : *ctx.workers) {
    if (fl::is_active(ctx.part, w.id)) w.x = x;
  }
}

}  // namespace hfl::algs

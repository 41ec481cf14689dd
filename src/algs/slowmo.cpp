#include "src/algs/slowmo.h"

#include "src/core/nag.h"

namespace hfl::algs {

void SlowMo::init(fl::Context& ctx) {
  ctx.cloud->extra.assign(kNumSlots, Vec(ctx.cloud->x.size(), 0.0));
}

void SlowMo::local_step(fl::Context& ctx, fl::WorkerState& w) {
  core::sgd_local_step(w, ctx.cfg->eta);
}

void SlowMo::cloud_sync(fl::Context& ctx, std::size_t) {
  fl::aggregate_global(*ctx.workers, fl::worker_x, x_scratch_, ctx.part,
                       ctx.pool);
  Vec& m = ctx.cloud->extra[kSlowMomentumSlot];
  Vec& x = ctx.cloud->x;
  // m = β m + (x_{p−1} − x̄_p); x −= α m, fused into one pass.
  vec::slowmo_step(x, x_scratch_, m, ctx.cfg->gamma_edge, slow_lr_);
  for (fl::WorkerState& w : *ctx.workers) {
    if (fl::is_active(ctx.part, w.id)) w.x = x;
  }
}

}  // namespace hfl::algs

#include "src/algs/fedmom.h"

#include "src/core/nag.h"

namespace hfl::algs {

void FedMom::init(fl::Context& ctx) {
  ctx.cloud->extra.assign(kNumSlots, ctx.cloud->x);  // y_0 = x_0
}

void FedMom::local_step(fl::Context& ctx, fl::WorkerState& w) {
  core::sgd_local_step(w, ctx.cfg->eta);
}

void FedMom::cloud_sync(fl::Context& ctx, std::size_t) {
  fl::aggregate_global(*ctx.workers, fl::worker_x, x_scratch_, ctx.part,
                       ctx.pool);
  Vec& y_prev = ctx.cloud->extra[kServerYSlot];
  // y_p = x̄_p; x_p = y_p + γs (y_p − y_{p−1}); y_{p−1} ← y_p — one fused
  // pass over the three vectors.
  Vec& x = ctx.cloud->x;
  vec::extrapolate_update(x_scratch_, y_prev, ctx.cfg->gamma_edge, x);
  for (fl::WorkerState& w : *ctx.workers) {
    if (fl::is_active(ctx.part, w.id)) w.x = x;
  }
}

}  // namespace hfl::algs

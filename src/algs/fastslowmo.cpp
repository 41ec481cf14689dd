#include "src/algs/fastslowmo.h"

#include "src/core/nag.h"

namespace hfl::algs {

void FastSlowMo::init(fl::Context& ctx) {
  ctx.cloud->extra.assign(kNumSlots, Vec(ctx.cloud->x.size(), 0.0));
}

void FastSlowMo::local_step(fl::Context& ctx, fl::WorkerState& w) {
  core::nag_local_step(w, ctx.cfg->eta, ctx.cfg->gamma, /*accumulate=*/false);
}

void FastSlowMo::cloud_sync(fl::Context& ctx, std::size_t) {
  fl::aggregate_global(*ctx.workers, fl::worker_x, x_scratch_, ctx.part,
                       ctx.pool);
  // ȳ_p lands directly in the cloud state (no aliasing with worker vectors).
  fl::aggregate_global(*ctx.workers, fl::worker_y, ctx.cloud->y, ctx.part,
                       ctx.pool);
  Vec& m = ctx.cloud->extra[kSlowMomentumSlot];
  Vec& x = ctx.cloud->x;
  // m = β m + (x_{p−1} − x̄_p); x −= m (SlowMo fold at α = 1), one pass.
  vec::slowmo_step(x, x_scratch_, m, ctx.cfg->gamma_edge, /*lr=*/1.0);
  for (fl::WorkerState& w : *ctx.workers) {
    if (!fl::is_active(ctx.part, w.id)) continue;
    w.x = x;
    w.y = ctx.cloud->y;
  }
}

}  // namespace hfl::algs

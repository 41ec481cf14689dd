#include "benchmark/probes.h"

#include <algorithm>
#include <chrono>
#include <map>

namespace hfl::bench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// Times one forwarded call into `stats` when traced; counts it either way.
template <typename Fn>
void timed(bool traced, HookStats& stats, Fn&& fn) {
  ++stats.calls;
  if (!traced) {
    fn();
    return;
  }
  const std::uint64_t t0 = now_ns();
  fn();
  stats.busy_ns += now_ns() - t0;
}

void add(HookStats& into, const HookStats& from) {
  into.calls += from.calls;
  into.busy_ns += from.busy_ns;
}

}  // namespace

AlgorithmProbe::AlgorithmProbe(fl::Algorithm& inner, bool traced)
    : inner_(inner), traced_(traced) {}

void AlgorithmProbe::init_worker(fl::Context& ctx, fl::WorkerState& w) {
  timed(traced_, slots_.local().init_worker,
        [&] { inner_.init_worker(ctx, w); });
}

void AlgorithmProbe::local_step(fl::Context& ctx, fl::WorkerState& w) {
  Slot& slot = slots_.local();
  ++slot.local_step.calls;
  if (!traced_) {
    inner_.local_step(ctx, w);
    return;
  }
  const std::uint64_t t0 = now_ns();
  inner_.local_step(ctx, w);
  const std::uint64_t t1 = now_ns();
  slot.local_step.busy_ns += t1 - t0;
  if (slot.windows.empty() || slot.windows.back().t != ctx.t) {
    slot.windows.push_back({ctx.t, t0, t1});
  } else {
    slot.windows.back().last = t1;
  }
}

void AlgorithmProbe::edge_sync(fl::Context& ctx, fl::EdgeState& e,
                               std::size_t k) {
  timed(traced_, slots_.local().edge_sync,
        [&] { inner_.edge_sync(ctx, e, k); });
}

void AlgorithmProbe::cloud_sync(fl::Context& ctx, std::size_t p) {
  const std::uint64_t t0 = now_ns();
  cloud_entries_.push_back(t0);
  ++cloud_.calls;
  inner_.cloud_sync(ctx, p);
  if (traced_) cloud_.busy_ns += now_ns() - t0;
}

void AlgorithmProbe::absent_sync(fl::Context& ctx, fl::WorkerState& w,
                                 std::size_t k) {
  timed(traced_, slots_.local().absent_sync,
        [&] { inner_.absent_sync(ctx, w, k); });
}

void AlgorithmProbe::stale_sync(fl::Context& ctx, fl::WorkerState& w,
                                std::size_t tau) {
  timed(traced_, slots_.local().stale_sync,
        [&] { inner_.stale_sync(ctx, w, tau); });
}

AlgorithmProbe::Totals AlgorithmProbe::totals() const {
  Totals t;
  t.cloud_sync = cloud_;
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> windows;
  slots_.for_each([&](const Slot& s) {
    add(t.init_worker, s.init_worker);
    add(t.local_step, s.local_step);
    add(t.edge_sync, s.edge_sync);
    add(t.absent_sync, s.absent_sync);
    add(t.stale_sync, s.stale_sync);
    for (const Window& w : s.windows) {
      auto [it, fresh] = windows.try_emplace(w.t, w.first, w.last);
      if (!fresh) {
        it->second.first = std::min(it->second.first, w.first);
        it->second.second = std::max(it->second.second, w.last);
      }
    }
  });
  for (const auto& [iter, span] : windows) {
    t.local_step_wall_ns += span.second - span.first;
  }
  return t;
}

void CohortProbe::sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                                std::vector<Scalar>& multiplicity) {
  timed(traced_, sample_,
        [&] { inner_.sample_cohort(k, ids, multiplicity); });
}

std::vector<fl::WorkerId> CohortProbe::set_cohort(
    const std::vector<fl::WorkerId>& ids) {
  std::vector<fl::WorkerId> fresh;
  timed(traced_, turnover_, [&] { fresh = inner_.set_cohort(ids); });
  return fresh;
}

bool OracleProbe::worker_available(std::size_t k, std::size_t worker) const {
  bool up = false;
  timed(traced_, queries_, [&] { up = inner_.worker_available(k, worker); });
  return up;
}

bool OracleProbe::edge_available(std::size_t k, std::size_t edge) const {
  bool up = false;
  timed(traced_, queries_, [&] { up = inner_.edge_available(k, edge); });
  return up;
}

}  // namespace hfl::bench

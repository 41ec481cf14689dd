#include "src/net/time_simulator.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/common/errors.h"
#include "src/fl/comm_model.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace hfl::net {

TimeSimConfig make_time_sim_config(const std::string& algorithm,
                                   bool three_tier, std::size_t model_params,
                                   std::size_t num_workers) {
  TimeSimConfig sim;
  sim.three_tier = three_tier;
  sim.model_params = model_params;
  sim.worker_devices = default_worker_roster(num_workers);

  // Message contents per synchronization: the shared per-algorithm payload
  // table (fl/comm_model.h), also used by the engine's byte accounting.
  const fl::CommProfile profile = fl::comm_profile_for(algorithm);
  sim.worker_upload_vectors = profile.worker_upload_vectors;
  sim.worker_download_vectors = profile.worker_download_vectors;
  sim.edge_upload_vectors = profile.edge_upload_vectors;
  sim.edge_download_vectors = profile.edge_download_vectors;
  return sim;
}

void TimeSimConfig::validate() const {
  HFL_CHECK(model_params > 0, "time simulation needs the model size");
  HFL_CHECK(bytes_per_param > 0, "bytes_per_param must be positive");
  HFL_CHECK(worker_upload_vectors >= 0 && worker_download_vectors >= 0 &&
                edge_upload_vectors >= 0 && edge_download_vectors >= 0,
            "message vector multiplicities must be non-negative");
  HFL_CHECK(retry_backoff_s >= 0, "retry_backoff_s must be non-negative");
  HFL_CHECK(retry_backoff_mult >= 1.0, "retry_backoff_mult must be >= 1");
  HFL_CHECK(barrier_deadline_s >= 0,
            "barrier_deadline_s must be non-negative (0 disables)");
}

TimeSimulator::TimeSimulator(const fl::Topology& topo,
                             const fl::RunConfig& cfg, TimeSimConfig sim)
    : topo_(topo), cfg_(cfg), sim_(std::move(sim)) {
  cfg_.validate();
  // Validates sim_ and the device roster against the topology.
  model_ = std::make_unique<LatencyModel>(topo_, sim_);
  if (sim_.fault_plan != nullptr) sim_.fault_plan->validate(topo_);
  build_timeline();
}

void TimeSimulator::build_timeline() {
  // Host cost of constructing the timeline vs. the modeled seconds it
  // spans — the gap the simulator buys over wall-clock replay. Recorded
  // from the host clock only; the modeled timeline itself is untouched.
  const obs::Span span("build_timeline", "timesim");
  const auto host_start = std::chrono::steady_clock::now();

  Rng rng(sim_.seed);
  const fl::AvailabilityOracle* plan = sim_.fault_plan;
  const std::size_t T = cfg_.total_iterations;
  cumulative_.assign(T + 1, 0.0);

  // All delay draws go through the shared LatencyModel with this single
  // sequential stream — the exact sampling order of the pre-extraction
  // implementation (asserted by the hand-computed expectations in
  // tests/time_sim_test.cpp).
  if (sim_.three_tier) {
    // Per-edge running clock; the cloud barrier re-aligns them every π
    // intervals. Between barriers, edges progress independently.
    std::vector<Scalar> edge_clock(topo_.num_edges(), 0.0);
    const std::size_t K = T / cfg_.tau;
    for (std::size_t k = 1; k <= K; ++k) {
      for (std::size_t e = 0; e < topo_.num_edges(); ++e) {
        // A dark edge node runs no barrier this interval: its subtree's
        // clock simply does not advance.
        if (plan != nullptr && !plan->edge_available(k, e)) continue;
        // Workers compute τ iterations in parallel; the edge waits for the
        // slowest (compute + upload over WiFi).
        Scalar slowest = 0;
        bool any_upload = plan == nullptr;
        for (const std::size_t w : topo_.workers_of_edge(e)) {
          if (plan != nullptr && !plan->worker_available(k, w)) continue;
          Scalar compute = model_->worker_compute(rng, w, cfg_.tau);
          if (plan != nullptr) compute *= plan->worker_slowdown(k, w);
          // All workers of this edge share the WiFi uplink.
          const Scalar up = model_->worker_upload(
              rng, w, plan == nullptr ? 1 : plan->upload_attempts(k, w));
          slowest = std::max(slowest, compute + up);
          any_upload = true;
        }
        if (!any_upload) continue;  // whole membership absent: no barrier
        if (sim_.barrier_deadline_s > 0 && slowest > sim_.barrier_deadline_s) {
          slowest = sim_.barrier_deadline_s;
          if (obs::enabled()) {
            obs::Registry::global().counter("timesim.deadline_caps").add();
          }
        }
        const Scalar agg = model_->edge_aggregate(rng);
        const Scalar down = model_->edge_broadcast(rng, e);
        edge_clock[e] += slowest + agg + down;
      }

      const bool cloud_round = (k % cfg_.pi) == 0;
      Scalar now;
      if (cloud_round) {
        // Cloud barrier: every reachable edge uploads over the public
        // Internet; the cloud waits for the slowest, aggregates, and pushes
        // back.
        Scalar slowest_edge = 0;
        bool any_edge = false;
        // L edge nodes share the cloud's access link (Fig. 1: only L
        // connections traverse the public Internet).
        for (std::size_t e = 0; e < topo_.num_edges(); ++e) {
          if (plan != nullptr) {
            // Same rule as the engine: an edge joins the cloud barrier only
            // if it is reachable and has at least one surviving worker.
            if (!plan->edge_available(k, e)) continue;
            bool survivor = false;
            for (const std::size_t w : topo_.workers_of_edge(e)) {
              if (plan->worker_available(k, w)) {
                survivor = true;
                break;
              }
            }
            if (!survivor) continue;
          }
          const Scalar up = model_->edge_upload(rng);
          slowest_edge = std::max(slowest_edge, edge_clock[e] + up);
          any_edge = true;
        }
        if (any_edge) {
          const Scalar agg = model_->cloud_aggregate(rng);
          const Scalar down = model_->cloud_broadcast(rng);
          now = slowest_edge + agg + down;
          // Every edge re-aligns at the barrier (dark edges rejoin here).
          std::fill(edge_clock.begin(), edge_clock.end(), now);
        } else {
          now = *std::max_element(edge_clock.begin(), edge_clock.end());
        }
      } else {
        now = *std::max_element(edge_clock.begin(), edge_clock.end());
      }

      // Fill the interval ((k−1)τ, kτ] by linear interpolation from the
      // previous barrier's time to `now`.
      const std::size_t lo = (k - 1) * cfg_.tau;
      const Scalar t0 = cumulative_[lo];
      for (std::size_t i = 1; i <= cfg_.tau; ++i) {
        cumulative_[lo + i] =
            t0 + (now - t0) * static_cast<Scalar>(i) /
                     static_cast<Scalar>(cfg_.tau);
      }
    }
  } else {
    // Two-tier: global barrier every τ iterations over the public Internet.
    const std::size_t rounds = T / cfg_.tau;
    Scalar clock = 0;
    for (std::size_t r = 1; r <= rounds; ++r) {
      Scalar slowest = 0;
      bool any_upload = plan == nullptr;
      for (std::size_t w = 0; w < topo_.num_workers(); ++w) {
        if (plan != nullptr && !plan->worker_available(r, w)) continue;
        Scalar compute = model_->worker_compute(rng, w, cfg_.tau);
        if (plan != nullptr) compute *= plan->worker_slowdown(r, w);
        // Every worker's end-to-end connection traverses the public
        // Internet and contends for the cloud's access bandwidth (Fig. 1:
        // N connections instead of L).
        const Scalar up = model_->worker_upload(
            rng, w, plan == nullptr ? 1 : plan->upload_attempts(r, w));
        slowest = std::max(slowest, compute + up);
        any_upload = true;
      }
      Scalar now = clock;
      if (any_upload) {
        if (sim_.barrier_deadline_s > 0 && slowest > sim_.barrier_deadline_s) {
          slowest = sim_.barrier_deadline_s;
          if (obs::enabled()) {
            obs::Registry::global().counter("timesim.deadline_caps").add();
          }
        }
        const Scalar agg = model_->cloud_aggregate(rng);
        const Scalar down = model_->cloud_broadcast(rng);
        now = clock + slowest + agg + down;
      }

      const std::size_t lo = (r - 1) * cfg_.tau;
      for (std::size_t i = 1; i <= cfg_.tau; ++i) {
        cumulative_[lo + i] =
            clock + (now - clock) * static_cast<Scalar>(i) /
                        static_cast<Scalar>(cfg_.tau);
      }
      clock = now;
    }
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.gauge("timesim.modeled_total_s").set(cumulative_[T]);
    reg.gauge("timesim.build_host_s")
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           host_start)
                 .count());
  }
}

Scalar TimeSimulator::time_at_iteration(std::size_t t) const {
  HFL_CHECK(t < cumulative_.size(), "iteration beyond simulated horizon");
  return cumulative_[t];
}

Scalar TimeSimulator::time_to_accuracy(const fl::RunResult& result,
                                       Scalar target) const {
  const std::size_t t = result.iterations_to_accuracy(target);
  if (t == fl::RunResult::npos) return kNeverReached;
  return time_at_iteration(std::min(t, cumulative_.size() - 1));
}

}  // namespace hfl::net

// Trace-driven wall-clock simulation (paper Section V-D, Fig. 2(h),(l)).
//
// Training is simulated iteration-exactly by fl::Engine; this module replays
// the resulting iteration trace against sampled computation/communication
// delays to obtain the wall-clock time each iteration would have completed
// at in a real deployment. Synchronization is barrier-style:
//
//   three-tier: per edge interval, every worker computes τ iterations then
//   uploads; the edge waits for its slowest worker, aggregates, and pushes
//   back down. Every π edge intervals the edges additionally traverse the
//   public Internet to the cloud and back.
//
//   two-tier: per global round, every worker computes τ iterations then
//   uploads straight to the cloud over the public Internet.
//
// Payload size per message = model parameters × 4 bytes (float32 on the
// wire) × the algorithm's vector multiplicity (HierAdMo uploads model,
// momentum and the two interval accumulators; FedNAG-style algorithms model
// + momentum; plain-averaging algorithms just the model).
#pragma once

#include <memory>

#include "src/fl/availability.h"
#include "src/fl/config.h"
#include "src/fl/metrics.h"
#include "src/fl/topology.h"
#include "src/net/latency_model.h"
#include "src/net/profiles.h"

namespace hfl::net {

struct TimeSimConfig {
  bool three_tier = true;
  std::size_t model_params = 0;  // scalar parameter count
  Scalar bytes_per_param = 4.0;  // float32 on the wire

  // Vector multiplicity of each message (see header comment).
  Scalar worker_upload_vectors = 1.0;
  Scalar worker_download_vectors = 1.0;
  Scalar edge_upload_vectors = 1.0;    // three-tier only
  Scalar edge_download_vectors = 1.0;  // three-tier only

  std::vector<DeviceProfile> worker_devices;  // size = num workers
  DeviceProfile edge_device = edge_macbook();
  DeviceProfile cloud_device = cloud_gpu_server();

  LinkProfile worker_edge_link = wifi_5ghz();       // three-tier
  LinkProfile edge_cloud_link = public_internet();  // three-tier
  LinkProfile worker_cloud_link = public_internet();  // two-tier

  std::uint64_t seed = 7;

  // ---- Fault-aware replay (optional) ----
  //
  // When `fault_plan` is set (an oracle such as sim::FaultPlan; it must
  // outlive the simulator and is validated against the topology), the
  // timeline reflects it: absent workers contribute nothing to their
  // barrier, stragglers' compute is stretched by their slowdown factor, and
  // each failed upload attempt costs one timed-out transfer plus an
  // exponential backoff before the retry
  // (backoff_base_s · backoff_mult^(attempt−1)). A null or no-op oracle
  // reproduces the fault-free timeline bit for bit.
  const fl::AvailabilityOracle* fault_plan = nullptr;
  Scalar retry_backoff_s = 0.5;    // backoff after the first failed attempt
  Scalar retry_backoff_mult = 2.0; // growth per further failure
  // Deadline-based barriers: > 0 caps how long an aggregator waits for its
  // slowest uploader (stragglers past the budget are dropped at the
  // barrier, which the fault plan's deadline policy mirrors). 0 = wait for
  // the slowest, the paper's pure barrier.
  Scalar barrier_deadline_s = 0.0;

  // Throws hfl::Error on inconsistent settings (called by TimeSimulator,
  // which additionally checks the per-worker roster size and, when a fault
  // plan is attached, its shape against the topology).
  void validate() const;
};

// Per-algorithm message multiplicities for the algorithms in the registry.
// Unknown names get the conservative default (1 vector each way).
TimeSimConfig make_time_sim_config(const std::string& algorithm,
                                   bool three_tier, std::size_t model_params,
                                   std::size_t num_workers);

class TimeSimulator {
 public:
  TimeSimulator(const fl::Topology& topo, const fl::RunConfig& cfg,
                TimeSimConfig sim);

  // Cumulative wall-clock seconds at which iteration t completes (including
  // any synchronization ending exactly at t). t may be 0 (returns 0).
  Scalar time_at_iteration(std::size_t t) const;

  // Total simulated time for the full run.
  Scalar total_time() const { return time_at_iteration(cfg_.total_iterations); }

  // Sentinel returned by time_to_accuracy when the curve never reaches the
  // target (0 is a legitimate answer: the initial model may already qualify).
  // Alias of the shared hfl::kNeverTime (src/common/types.h).
  static constexpr Scalar kNeverReached = kNeverTime;

  // The sampling model this simulator replays against (shared with the
  // event-driven engine, which drives it with per-entity RNG streams).
  const LatencyModel& latency_model() const { return *model_; }

  // Wall-clock seconds at which the run (whose accuracy curve is `result`)
  // first reaches `target` accuracy; kNeverReached if it never does.
  Scalar time_to_accuracy(const fl::RunResult& result, Scalar target) const;

 private:
  void build_timeline();

  fl::Topology topo_;
  fl::RunConfig cfg_;
  TimeSimConfig sim_;
  // Sampling model over (topo_, sim_); delay draws happen through it so the
  // barrier replay below and the event-driven engine share one distribution.
  std::unique_ptr<LatencyModel> model_;
  // cumulative_[t] = completion time of iteration t (index 0 = 0.0).
  std::vector<Scalar> cumulative_;
};

}  // namespace hfl::net

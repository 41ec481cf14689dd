#include "src/evt/async_engine.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/errors.h"
#include "src/common/rng.h"
#include "src/common/vec_ops.h"
#include "src/evt/event_queue.h"
#include "src/fl/state.h"
#include "src/net/profiles.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace hfl::evt {

namespace {

// The embedded fl::Engine always carries the sync policy: the requested
// config is validated FIRST, so policy-specific errors (semi_async without a
// deadline, async + batched cohort) surface against the user's actual
// settings, and only then sanitized down to what fl::Engine accepts (a sync
// config passes through unchanged). Everything the event-driven paths read
// through Context::cfg (τ, π, the staleness knobs, seeds) is preserved.
fl::RunConfig toolbox_config(fl::RunConfig cfg) {
  cfg.validate();
  cfg.policy = fl::ExecPolicy::kSync;
  cfg.semi_async_deadline_s = 0.0;
  cfg.adaptive_deadline = false;
  return cfg;
}

// Complete the deployment model's auto-filled fields from the run itself.
net::TimeSimConfig complete_sim(net::TimeSimConfig sim,
                                const nn::ModelFactory& factory,
                                const fl::Topology& topo) {
  if (sim.model_params == 0) sim.model_params = factory()->num_params();
  if (sim.worker_devices.empty()) {
    sim.worker_devices = net::default_worker_roster(topo.num_workers());
  }
  sim.fault_plan = nullptr;  // plans are per-run; see run()
  return sim;
}

// v ← (1−α)·pre + α·v — the damped fold of an asynchronous aggregation: the
// aggregator only moves by the admitted cohort's effective (staleness-scaled)
// mass. A full fresh cohort has α = 1 and keeps the plain aggregation; a
// lone stale straggler barely moves the tier.
void damp(Vec& v, const Vec& pre, Scalar alpha) {
  if (alpha >= 1.0) return;
  vec::axpby(1.0 - alpha, pre, alpha, v);  // fused (1−α)·pre + α·v
}

// One tier's aggregation vectors as one list (edge: x⁺, y⁺, y⁻; cloud: x, y
// and every slot of CloudState::extra, which algorithms size in init(), so
// a sync never adds one), copied before a sync so apply() can damp the
// sync's result back toward them.
class TierDamp {
 public:
  explicit TierDamp(fl::EdgeState& es)
      : TierDamp({&es.x_plus, &es.y_plus, &es.y_minus}, {}) {}
  explicit TierDamp(fl::CloudState& cs) : TierDamp({&cs.x, &cs.y}, cs.extra) {}

  // The tier model (x⁺ or x) as it stood before the sync.
  const Vec& pre_model() const { return pre_.front(); }

  void apply(Scalar alpha) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      damp(*live_[i], pre_[i], alpha);
    }
  }

 private:
  TierDamp(std::initializer_list<Vec*> vecs, std::span<Vec> extra)
      : live_(vecs) {
    for (Vec& v : extra) live_.push_back(&v);
    for (const Vec* v : live_) pre_.push_back(*v);
  }

  std::vector<Vec*> live_;
  std::vector<Vec> pre_;
};

// s(τ) = staleness_decay^τ.
Scalar staleness_weight(Scalar decay, std::size_t tau) {
  Scalar s = 1.0;
  for (std::size_t i = 0; i < tau; ++i) s *= decay;
  return s;
}

// Bucket bounds of the evt.staleness histogram (aggregator versions).
const std::vector<double>& staleness_bounds() {
  static const std::vector<double> bounds{0, 1, 2, 4, 8, 16};
  return bounds;
}

}  // namespace

// The aggregation-visible slice of a worker's state, frozen at upload time
// and stamped with the aggregator version of the model the interval was
// trained on. While the snapshot is in flight the live worker keeps training
// (communication overlaps computation); the aggregation later folds the
// snapshot, never the live state.
struct UploadSnapshot {
  std::size_t download_version = 0;
  fl::WorkerSlice slice;
};

// One arrived upload, as cohort_sync consumes it.
struct Arrival {
  std::size_t w = 0;
  UploadSnapshot snap;
};

// A refresh in flight toward one worker: the version stamp plus exactly the
// fields the aggregation's push-down changed (x is always present — every
// aggregation re-anchors its cohort on the damped tier model). Applied at
// the worker's next interval boundary; an older message never overwrites a
// newer one, so download_version is monotone per worker.
//
// The interval accumulators never travel. A push-down only ever zeroes them
// (HierAdMo's edge_sync), and a download is applied only at the boundary
// where snapshot_worker has just zeroed the live ones (worker_arrival), so
// shipping them would write zeros over zeros.
struct DownloadMsg {
  std::size_t version = 0;
  bool has_y = false;
  Vec x, y;
};

namespace {

// Freeze the aggregation-visible fields; the live worker keeps its model and
// momentum (it continues training from where it stands) but hands its
// interval accumulators to the snapshot (they describe the uploaded
// interval, not the next one).
UploadSnapshot snapshot_worker(fl::WorkerState& ws, std::size_t version) {
  UploadSnapshot s{version, ws};
  ws.reset_interval_accumulators();
  return s;
}

// Swap the aggregation-visible slice between the live worker and a
// snapshot. Aggregations run against the snapshot state swapped in (so
// Algorithm hooks read/write plain WorkerState), then swap back — the live
// in-progress state is never touched by a sync. Descriptors, batch streams
// and the plan stay with the live state.
void swap_snapshot(fl::WorkerState& ws, UploadSnapshot& s) {
  fl::WorkerSlice& live = ws;
  std::swap(live, s.slice);
}

// Copy of the push-down-visible field besides x (which every download
// carries) taken right before Algorithm sync hooks run, to diff what the
// push-down actually changed.
struct PushBase {
  Vec y;
};

PushBase push_baseline(const fl::WorkerState& ws) { return PushBase{ws.y}; }

// Compose the download for one admitted worker: the damped tier model plus
// whatever else the algorithm's push-down wrote (diffed against the
// pre-sync baseline, so e.g. HierAdMo's momentum hand-off w.y = e.y_minus
// travels while an untouched y does not). The mini-batch gradient is local
// scratch (fl::WorkerState::grad), outside the slice, so no sync sees it.
DownloadMsg diff_pushdown(const fl::WorkerState& ws, const PushBase& base,
                          std::size_t version, const Vec& anchor) {
  DownloadMsg m;
  m.version = version;
  m.x = anchor;
  if (ws.y != base.y) {
    m.has_y = true;
    m.y = ws.y;
  }
  return m;
}

// One aggregation point of an event-driven run: an edge, or the cloud. Both
// tiers admit worker cohorts the same way (cohort_sync); the fields marked
// (edges) stay idle at the cloud.
struct Aggregator {
  // Bumped per aggregation and, at an edge, per cloud-driven model refresh:
  // the staleness base of every upload this aggregator admits.
  std::size_t version = 0;
  std::size_t round = 0;        // fault-schedule round counter (edges)
  std::size_t since_cloud = 0;  // aggregations since the last cloud push (edges)
  std::size_t cloud_base = 0;   // cloud version at the last cloud contact (edges)
  std::uint8_t up = 1;          // last observed availability (edges)
  // Latency stream forked off TimeSimConfig::seed (aggregate / upload /
  // broadcast draws of this aggregator).
  Rng rng{0};
  // Semi-async admission: the round's inbox and armed deadline, plus the
  // adaptive deadline's EWMA of the observed arrival spread (last − first
  // arrival of each fired round), seeded so the first armed deadline is
  // exactly semi_async_deadline_s.
  std::vector<Arrival> inbox;
  bool deadline_armed = false;
  Scalar deadline_ewma = 0, first_arrival = 0, last_arrival = 0;
};

// Current admission deadline of an aggregator. Fixed at
// semi_async_deadline_s unless adaptive_deadline tunes it per round:
// deadline = deadline_margin × EWMA(arrival spread), clamped to
// [0.25, 4] × the configured base so a degenerate round (single arrival,
// spread 0) cannot collapse the deadline to zero.
Scalar admission_deadline(const fl::RunConfig& cfg, const Aggregator& ag) {
  const Scalar base = cfg.semi_async_deadline_s;
  if (!cfg.adaptive_deadline) return base;
  return std::min(4.0 * base,
                  std::max(0.25 * base, cfg.deadline_margin * ag.deadline_ewma));
}

}  // namespace

// Mutable state of one event-driven run. The fl::RunState inside must not
// move after prepare_run (Context holds pointers into it), so EvtRun lives
// on run_event_driven's stack and is only ever passed by reference.
struct EvtRun {
  fl::RunState rs;
  EventQueue q;
  std::unique_ptr<fl::Participation> mpart;  // aggregation roster view
  const fl::AvailabilityOracle* plan = nullptr;  // null = fault-free
  bool three_tier = true;
  std::size_t K = 0;            // edge intervals per worker (T/τ)
  Scalar last_time = 0;         // latest modeled instant touched
  std::size_t steps_total = 0;  // local steps executed across all workers
  std::string policy_label;     // obs label, e.g. "policy=semi_async"

  // Per-entity latency streams forked off TimeSimConfig::seed: arrival ORDER
  // depends on the sampled delays, but each entity's delay SEQUENCE depends
  // only on the seed — no handler ordering can perturb another stream.
  // wrng feeds each worker's compute + upload draws (in that alternating
  // order per interval), wdrng its download-leg draws, so splitting the
  // monolithic worker event did not reorder any existing stream. The
  // aggregators carry their own streams.
  std::vector<Rng> wrng, wdrng;

  // Worker progress: completed intervals (quota K), aggregator version of
  // the model the worker currently trains on (the staleness base of its next
  // upload), last observed availability.
  std::vector<std::size_t> w_interval, w_version;
  std::vector<std::uint8_t> w_up;

  // In-flight communication state per worker: FIFO of snapshots racing up
  // the uplink (the uplink serializes, so arrivals are FIFO too), the
  // instant the uplink frees up, and the latest received-but-unapplied
  // refresh (newer versions supersede older ones in this slot).
  std::vector<std::deque<UploadSnapshot>> w_upq;
  std::vector<Scalar> uplink_free;
  std::vector<DownloadMsg> w_pending;
  std::vector<std::uint8_t> w_has_pending;
  // In-flight download payloads, indexed by Event::round of kWorkerDownload.
  // A delivered slot goes on the free list and carries the next download,
  // so the table holds at most the downloads in flight at once.
  std::vector<DownloadMsg> dmsgs;
  std::vector<std::size_t> dmsg_free;

  // Aggregators: edges [0, E), the cloud at index `cloud` (== E).
  std::vector<Aggregator> aggs;
  std::size_t cloud = 0;

  // Staleness accounting (RunResult + obs).
  std::size_t admitted = 0, stale = 0, dropped = 0, max_tau = 0;
  Scalar tau_sum = 0;

  // Communication-event accounting.
  std::size_t uploads_arrived = 0, uploads_coalesced = 0;
  std::size_t downloads_scheduled = 0, downloads_applied = 0;
  std::size_t downloads_superseded = 0;
  Scalar overlap_s = 0;

  // Roster scratch reused across aggregations: the admitted cohort
  // (ascending ids) with its staleness scales, and the edge roster.
  std::vector<fl::WorkerId> cohort_ids;
  std::vector<std::uint8_t> cohort_up, roster_e;
  std::vector<Scalar> cohort_scale;
};

// Member order matters: sim_ is completed from `factory` and `topo` before
// engine_ takes ownership of them.
AsyncEngine::AsyncEngine(nn::ModelFactory factory, const data::TrainTest& data,
                         data::Partition partition, fl::Topology topo,
                         fl::RunConfig cfg, net::TimeSimConfig sim)
    : cfg_(cfg),
      sim_(complete_sim(std::move(sim), factory, topo)),
      engine_(std::move(factory), data, std::move(partition), std::move(topo),
              toolbox_config(cfg)),
      model_(std::make_unique<net::LatencyModel>(engine_.topology(), sim_)) {}

// Sync policy: fl::Engine's own barrier loop, with every curve point stamped
// by a net::TimeSimulator replay of the same run (additive: iteration, loss,
// accuracy and all engine.* counters are untouched).
fl::RunResult AsyncEngine::run(fl::Algorithm& alg,
                               const fl::AvailabilityOracle* plan) {
  if (cfg_.policy != fl::ExecPolicy::kSync) return run_event_driven(alg, plan);
  fl::RunResult result = engine_.run_with_oracle(alg, plan);
  net::TimeSimConfig tsim = sim_;
  tsim.fault_plan = plan;
  const net::TimeSimulator ts(engine_.topology(), engine_.config(), tsim);
  for (fl::MetricPoint& p : result.curve) {
    p.sim_time = ts.time_at_iteration(p.iteration);
  }
  result.sim_seconds = ts.total_time();
  return result;
}

// ---------------------------------------------------------------------------
// Event-driven policies (semi_async / async).
// ---------------------------------------------------------------------------

// Schedule worker w's next interval of local compute: sample its duration
// from the worker's own latency stream and push the compute-done event.
// Availability and straggler factors come from the fault plan, resolved
// against the worker's OWN interval counter — in an asynchronous run
// workers drift apart, so "interval k" is per-worker progress, not global
// time. Returns the sampled duration (0 when the quota is exhausted or the
// interval is an offline re-check), which the caller uses for the
// comm/compute overlap accounting.
Scalar AsyncEngine::dispatch_compute(EvtRun& er, std::size_t w, Scalar base) {
  const std::size_t kw = er.w_interval[w] + 1;
  if (kw > er.K) return 0;  // quota exhausted — worker is done
  bool up = true;
  Scalar slowdown = 1.0;
  if (er.plan != nullptr) {
    up = er.plan->worker_available(kw, w);
    if (up) slowdown = er.plan->worker_slowdown(kw, w);
  }
  note_availability(er, /*is_edge=*/false, w, up, base);
  const std::size_t tau = engine_.config().tau;
  if (!up) {
    // Offline interval: nothing is computed or uploaded; the worker
    // re-checks after a nominal (unstretched) interval of compute time so
    // the outage still occupies modeled time.
    const Scalar dt = model_->worker_compute(er.wrng[w], w, tau);
    er.q.push({base + dt, 0, EventType::kWorkerReady, w, kw, /*absent=*/true,
               false});
    return 0;
  }
  const Scalar compute = model_->worker_compute(er.wrng[w], w, tau) * slowdown;
  er.q.push({base + compute, 0, EventType::kWorkerReady, w, kw, false, false});
  return compute;
}

// Record an availability flip as a fault event the first time it is observed
// (rosters themselves are resolved at dispatch/admission points).
void AsyncEngine::note_availability(EvtRun& er, bool is_edge, std::size_t id,
                                    bool up, Scalar time) {
  std::uint8_t& cur = is_edge ? er.aggs[id].up : er.w_up[id];
  if ((cur != 0) == up) return;
  cur = up ? 1 : 0;
  er.q.push({time, 0, EventType::kFault, id, 0, up, is_edge});
}

// A worker's update misses its synchronization — its own outage, or an
// upload refused by a dark aggregator: the absent-momentum hook runs on the
// live state and the miss is counted.
void AsyncEngine::miss_sync(fl::Algorithm& alg, EvtRun& er, std::size_t w) {
  fl::RunState& rs = er.rs;
  rs.ctx.part = er.mpart.get();
  alg.absent_sync(rs.ctx, rs.workers[w], er.w_interval[w]);
  rs.ctx.part = nullptr;
  if (!rs.result.worker_miss_counts.empty()) {
    ++rs.result.worker_miss_counts[w];
  }
}

// Apply the latest received refresh, if any, at an interval boundary. Only a
// strictly newer version overwrites the worker (monotone download_version);
// a refresh the worker outran — it already holds a newer version — is
// counted superseded and discarded.
void AsyncEngine::apply_pending_download(EvtRun& er, std::size_t w) {
  if (!er.w_has_pending[w]) return;
  er.w_has_pending[w] = 0;
  DownloadMsg& m = er.w_pending[w];
  if (m.version <= er.w_version[w]) {
    ++er.downloads_superseded;
    return;
  }
  fl::WorkerState& ws = er.rs.workers[w];
  ws.x = std::move(m.x);
  if (m.has_y) ws.y = std::move(m.y);
  er.w_version[w] = m.version;
  ++er.downloads_applied;
  er.w_pending[w] = DownloadMsg{};
}

// Put one refresh on the wire: sample the worker's own download leg, charge
// the bytes, and push the arrival event (round = payload index).
void AsyncEngine::schedule_download(EvtRun& er, std::size_t w, DownloadMsg msg,
                                    Scalar base) {
  const Scalar dt = model_->worker_download(er.wdrng[w], w);
  std::size_t idx = er.dmsgs.size();
  if (er.dmsg_free.empty()) {
    er.dmsgs.push_back(std::move(msg));
  } else {
    idx = er.dmsg_free.back();
    er.dmsg_free.pop_back();
    er.dmsgs[idx] = std::move(msg);
  }
  er.q.push({base + dt, 0, EventType::kWorkerDownload, w, idx, false, false});
  ++er.downloads_scheduled;
  er.last_time = std::max(er.last_time, base + dt);
  if (obs::enabled()) {
    obs::CommAccountant::global().record(
        er.three_tier ? obs::Link::kEdgeToWorker : obs::Link::kCloudToWorker,
        er.three_tier ? er.rs.workers[w].edge : w, er.rs.worker_down_bytes);
  }
}

// A refresh lands at worker w: stash it as the pending download unless a
// newer version is already pending or applied.
void AsyncEngine::download_arrival(EvtRun& er, const Event& ev) {
  const std::size_t w = ev.entity;
  DownloadMsg m = std::move(er.dmsgs[ev.round]);
  er.dmsg_free.push_back(ev.round);
  if (m.version <= er.w_version[w] ||
      (er.w_has_pending[w] && er.w_pending[w].version >= m.version)) {
    ++er.downloads_superseded;
    return;
  }
  if (er.w_has_pending[w]) ++er.downloads_superseded;
  er.w_pending[w] = std::move(m);
  er.w_has_pending[w] = 1;
}

// A worker finishes one interval of local compute: run its τ local steps
// lazily (so it trains on exactly the model it last downloaded), snapshot
// the result onto the uplink, apply any refresh that arrived while it was
// computing, and immediately start the next interval — the upload's flight
// time overlaps the next compute.
void AsyncEngine::worker_arrival(fl::Algorithm& alg, EvtRun& er,
                                 const Event& ev) {
  fl::RunState& rs = er.rs;
  const std::size_t w = ev.entity;
  if (ev.flag) {
    // Offline interval (scheduled by dispatch_compute): the interval is
    // consumed without an update and the next one is scheduled.
    ++er.w_interval[w];
    miss_sync(alg, er, w);
    dispatch_compute(er, w, ev.time);
    return;
  }

  fl::WorkerState& ws = rs.workers[w];
  {
    const obs::Span span("local_steps", "worker");
    for (std::size_t s = 0; s < engine_.config().tau; ++s) {
      rs.ctx.t = ++er.steps_total;
      alg.local_step(rs.ctx, ws);
    }
  }
  const std::size_t kw = ++er.w_interval[w];

  // Snapshot the finished interval onto the uplink (FIFO: the link
  // serializes, so a pipelined upload waits for the previous one to clear).
  er.w_upq[w].push_back(snapshot_worker(ws, er.w_version[w]));
  const std::size_t attempts =
      er.plan != nullptr ? er.plan->upload_attempts(kw, w) : 1;
  const Scalar up_start = std::max(ev.time, er.uplink_free[w]);
  const Scalar upload = model_->worker_upload(er.wrng[w], w, attempts);
  const Scalar arrive = up_start + upload;
  er.uplink_free[w] = arrive;
  er.q.push({arrive, 0, EventType::kWorkerUpload, w, kw, false, false});
  er.last_time = std::max(er.last_time, arrive);

  // Interval boundary: fold in the freshest refresh received in flight, then
  // start the next interval's compute while the upload travels.
  apply_pending_download(er, w);
  const Scalar next_compute = dispatch_compute(er, w, ev.time);
  if (next_compute > 0) {
    const Scalar overlap =
        std::min(arrive, ev.time + next_compute) - up_start;
    if (overlap > 0) er.overlap_s += overlap;
  }
}

// A worker's upload lands at its aggregator — the edge in three-tier runs,
// the cloud in two-tier runs: charge the uplink bytes (the transfer happened
// whatever its fate) and route per policy. Semi-async parks it for the
// aggregator's deadline; async admits it at once as a cohort of one.
void AsyncEngine::upload_arrival(fl::Algorithm& alg, EvtRun& er,
                                 const Event& ev) {
  fl::RunState& rs = er.rs;
  const std::size_t w = ev.entity;
  HFL_CHECK(!er.w_upq[w].empty(), "upload arrival without an in-flight snapshot");
  Arrival arr{w, std::move(er.w_upq[w].front())};
  er.w_upq[w].pop_front();
  ++er.uploads_arrived;
  if (obs::enabled()) {
    // Every arrival is charged exactly once, here — including updates later
    // discarded for staleness or refused by a dark aggregator, whose bytes
    // were spent all the same.
    obs::CommAccountant::global().record(
        er.three_tier ? obs::Link::kWorkerToEdge : obs::Link::kWorkerToCloud,
        er.three_tier ? rs.workers[w].edge : w, rs.worker_up_bytes);
  }

  const std::size_t a = er.three_tier ? rs.workers[w].edge : er.cloud;
  if (cfg_.policy == fl::ExecPolicy::kSemiAsync) {
    enqueue_arrival(er, a, std::move(arr), ev.time);
    return;
  }
  std::vector<Arrival> cohort;
  cohort.push_back(std::move(arr));
  admit_cohort(alg, er, a, std::move(cohort), ev.time);
}

// Semi-async: park an arrival in aggregator a's inbox and arm the deadline
// on the round's first arrival. A worker that laps the deadline (its next
// upload arrives before the round fires) coalesces: the newer snapshot
// subsumes the older one — uploads are cumulative states, so no work is
// lost.
void AsyncEngine::enqueue_arrival(EvtRun& er, std::size_t a, Arrival arr,
                                  Scalar t) {
  Aggregator& ag = er.aggs[a];
  const auto prev = std::find_if(
      ag.inbox.begin(), ag.inbox.end(),
      [&arr](const Arrival& p) { return p.w == arr.w; });
  if (prev != ag.inbox.end()) {
    prev->snap = std::move(arr.snap);
    ++er.uploads_coalesced;
  } else {
    ag.inbox.push_back(std::move(arr));
  }
  ag.last_arrival = t;
  if (!ag.deadline_armed) {
    ag.deadline_armed = true;
    ag.first_arrival = t;
    const EventType type =
        a == er.cloud ? EventType::kCloudSync : EventType::kEdgeSync;
    er.q.push({t + admission_deadline(cfg_, ag), 0, type, a, 0, false, false});
  }
}

// Aggregator a's semi-async deadline fires: admit whatever the inbox holds,
// and (adaptive deadlines) fold the round's arrival spread into the EWMA.
void AsyncEngine::fire_deadline(fl::Algorithm& alg, EvtRun& er, std::size_t a,
                                Scalar t) {
  Aggregator& ag = er.aggs[a];
  ag.deadline_armed = false;
  std::vector<Arrival> cohort = std::move(ag.inbox);
  ag.inbox.clear();
  if (cohort.empty()) return;  // flushed elsewhere — nothing to do
  if (cfg_.adaptive_deadline) {
    ag.deadline_ewma =
        0.5 * (ag.deadline_ewma + (ag.last_arrival - ag.first_arrival));
  }
  admit_cohort(alg, er, a, std::move(cohort), t);
}

// Hand an arrived cohort to aggregator a — unless it is an edge the fault
// schedule has dark for its current round. Then the whole cohort misses:
// every member's uploaded interval is lost (their own progress continues —
// compute was already redispatched) and the refusal consumes one edge
// schedule round, so a long outage burns through its scheduled rounds
// instead of freezing the subtree forever.
void AsyncEngine::admit_cohort(fl::Algorithm& alg, EvtRun& er, std::size_t a,
                               std::vector<Arrival> cohort, Scalar t) {
  Aggregator& ag = er.aggs[a];
  if (a != er.cloud && er.plan != nullptr) {
    const std::size_t kc = std::min(ag.round + 1, er.K);
    const bool up = er.plan->edge_available(kc, a);
    note_availability(er, /*is_edge=*/true, a, up, t);
    if (!up) {
      ++ag.round;
      for (const Arrival& arr : cohort) {
        ++er.dropped;
        miss_sync(alg, er, arr.w);
      }
      return;
    }
  }
  cohort_sync(alg, er, a, std::move(cohort), t);
}

// Cloud-driven edge model refresh: the edge's model changed without an edge
// aggregation, so bump the edge version and broadcast the new anchor to the
// whole subtree as ordinary versioned downloads — in-flight workers keep
// their causal view and pick the refresh up at their next boundary.
// Momentum travels with the edge's next aggregation push-down, not here
// (the cloud re-anchor is model-only).
void AsyncEngine::broadcast_edge_refresh(EvtRun& er, std::size_t e,
                                         Scalar base) {
  const std::size_t version = ++er.aggs[e].version;
  const fl::EdgeState& es = er.rs.edges[e];
  for (const std::size_t w : engine_.topology().workers_of_edge(e)) {
    DownloadMsg m;
    m.version = version;
    m.x = es.x_plus;
    schedule_download(er, w, std::move(m), base);
  }
}

// Aggregation at aggregator a (edge: Algorithm::edge_sync, cloud of a
// two-tier run: Algorithm::cloud_sync) over an arrived cohort of upload
// snapshots. Splits the cohort by the staleness bound (τ measured against
// each snapshot's download_version), swaps the admitted snapshots in as the
// worker states the sync reads, folds the result with the damped α-mix
// (α over in-edge weights at an edge, global weights at the cloud), then
// swaps the live states back and ships each cohort member a versioned
// download (admitted: the damped model + the push-down's changes;
// discarded: a forced model refresh). The live workers are never touched —
// they are mid-flight in their next interval.
void AsyncEngine::cohort_sync(fl::Algorithm& alg, EvtRun& er, std::size_t a,
                              std::vector<Arrival> cohort, Scalar tev) {
  fl::RunState& rs = er.rs;
  Aggregator& ag = er.aggs[a];
  const bool at_cloud = a == er.cloud;
  const Vec& anchor = at_cloud ? rs.cloud.x : rs.edges[a].x_plus;
  std::sort(cohort.begin(), cohort.end(),
            [](const Arrival& x, const Arrival& y) { return x.w < y.w; });

  obs::Registry& reg = obs::Registry::global();
  std::vector<std::size_t> admitted, discarded;  // indices into cohort
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    const std::size_t dv = cohort[i].snap.download_version;
    HFL_CHECK(dv <= ag.version,
              "upload stamped with a future aggregator version — download "
              "versioning broke monotonicity");
    const std::size_t tau = ag.version - dv;
    // The histogram profiles every update the aggregator saw, dropped ones
    // included; RunResult's mean/max stay admitted-only.
    if (obs::enabled()) {
      reg.histogram("evt.staleness", er.policy_label, staleness_bounds())
          .observe(static_cast<double>(tau));
    }
    if (static_cast<std::int64_t>(tau) > cfg_.max_staleness) {
      discarded.push_back(i);
    } else {
      admitted.push_back(i);
    }
  }

  const Scalar done = tev + (at_cloud ? model_->cloud_aggregate(ag.rng)
                                      : model_->edge_aggregate(ag.rng));
  std::size_t refresh_version = ag.version;

  if (!admitted.empty()) {
    const std::size_t k_agg = ++ag.version;
    ++ag.round;
    refresh_version = k_agg;

    // Roster + staleness weights (s multiplies the data-size mass before the
    // renormalization inside Participation). Two arrivals of one worker
    // share its roster slot — the later one's weight wins — while alpha
    // counts each arrival.
    er.cohort_ids.clear();
    er.cohort_scale.clear();
    er.roster_e.assign(rs.edges.size(), at_cloud ? 1 : 0);
    if (!at_cloud) er.roster_e[a] = 1;
    Scalar alpha = 0;
    for (const std::size_t i : admitted) {
      const std::size_t w = cohort[i].w;
      const std::size_t tau = k_agg - 1 - cohort[i].snap.download_version;
      const Scalar s = staleness_weight(cfg_.staleness_decay, tau);
      if (!er.cohort_ids.empty() && er.cohort_ids.back() == w) {
        er.cohort_scale.back() = s;
      } else {
        er.cohort_ids.push_back(static_cast<fl::WorkerId>(w));
        er.cohort_scale.push_back(s);
      }
      alpha += (at_cloud ? rs.workers[w].weight_global
                         : rs.workers[w].weight_in_edge) *
               s;
      ++er.admitted;
      er.tau_sum += static_cast<Scalar>(tau);
      er.max_tau = std::max(er.max_tau, tau);
    }
    er.cohort_up.assign(er.cohort_ids.size(), 1);
    er.mpart->set_cohort_roster(er.cohort_ids, er.cohort_up, er.roster_e,
                                &er.cohort_scale);
    rs.ctx.part = er.mpart.get();

    // The aggregation reads the uploaded snapshots, not the live in-flight
    // states: swap them in, run the staleness hook, remember the push-down
    // baseline.
    std::vector<PushBase> bases(admitted.size());
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      Arrival& arr = cohort[admitted[j]];
      swap_snapshot(rs.workers[arr.w], arr.snap);
      const std::size_t tau = k_agg - 1 - arr.snap.download_version;
      if (tau > 0) {
        ++er.stale;
        alg.stale_sync(rs.ctx, rs.workers[arr.w], tau);
      }
      bases[j] = push_baseline(rs.workers[arr.w]);
    }

    // Aggregate against the cohort, then α-damp the tier back toward its
    // pre-sync state.
    if (at_cloud) {
      TierDamp tier(rs.cloud);
      alg.cloud_sync(rs.ctx, k_agg);
      tier.apply(alpha);
    } else {
      TierDamp tier(rs.edges[a]);
      {
        const fl::EdgeSyncGuard guard(engine_.edge_sync_entries_,
                                      alg.edge_sync_reentrant());
        alg.edge_sync(rs.ctx, rs.edges[a], k_agg);
      }
      tier.apply(alpha);
    }
    rs.ctx.part = nullptr;

    // Compose each admitted member's download off the post-sync snapshot
    // state (anchored on the damped model), then hand the live state back.
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      Arrival& arr = cohort[admitted[j]];
      DownloadMsg msg =
          diff_pushdown(rs.workers[arr.w], bases[j], k_agg, anchor);
      swap_snapshot(rs.workers[arr.w], arr.snap);
      schedule_download(er, arr.w, std::move(msg), done);
    }

    if (obs::enabled()) {
      reg.counter(at_cloud ? "evt.cloud_syncs" : "evt.edge_syncs",
                  er.policy_label)
          .add();
    }
    if (at_cloud) {
      engine_.record_point(rs, er.steps_total / rs.workers.size(), anchor,
                           done);
    }
  }

  // Discarded updates: the uploaded interval is lost; the worker is forced
  // back onto the aggregator's current model (its next upload will be
  // fresh).
  for (const std::size_t i : discarded) {
    ++er.dropped;
    DownloadMsg msg;
    msg.version = refresh_version;
    msg.x = anchor;
    schedule_download(er, cohort[i].w, std::move(msg), done);
  }
  er.last_time = std::max(er.last_time, done);

  // Every π-th edge aggregation ships the edge state up to the cloud.
  if (!at_cloud && !admitted.empty() &&
      ++ag.since_cloud >= engine_.config().pi) {
    ag.since_cloud = 0;
    const Scalar up = model_->edge_upload(ag.rng);
    er.q.push({done + up, 0, EventType::kCloudSync, a, ag.cloud_base, false,
               false});
  }
}

// An edge's update lands at the cloud (three-tier). Staleness is measured in
// cloud versions since the edge's last cloud interaction (`base_version`,
// carried by the event). The cloud folds the edge's state through an
// edge-only roster — no worker is written: if the fold changes the edge
// model, the subtree hears about it through broadcast_edge_refresh's
// versioned downloads (never retroactively). `broadcast` is false only for
// the post-loop terminal flush, where no event would ever be processed.
void AsyncEngine::cloud_edge_arrival(fl::Algorithm& alg, EvtRun& er,
                                     std::size_t e, std::size_t base_version,
                                     Scalar tev, bool broadcast) {
  fl::RunState& rs = er.rs;
  fl::EdgeState& es = rs.edges[e];
  Aggregator& cloud = er.aggs[er.cloud];
  const std::size_t tau_e = cloud.version - base_version;
  obs::Registry& reg = obs::Registry::global();
  if (obs::enabled()) {
    // The upload's bytes were spent whatever its fate (see below for the
    // admit/discard split); the histogram likewise profiles every arrival.
    obs::CommAccountant::global().record(obs::Link::kEdgeToCloud, e,
                                         rs.edge_up_bytes);
    reg.histogram("evt.staleness", er.policy_label, staleness_bounds())
        .observe(static_cast<double>(tau_e));
  }

  if (static_cast<std::int64_t>(tau_e) > cfg_.max_staleness) {
    // Too far behind: the edge update is discarded and the edge re-anchored
    // on the current cloud model, which flows to its workers as an ordinary
    // versioned refresh.
    ++er.dropped;
    es.x_plus = rs.cloud.x;
    er.aggs[e].cloud_base = cloud.version;
    if (obs::enabled()) {
      obs::CommAccountant::global().record(obs::Link::kCloudToEdge, e,
                                           rs.edge_down_bytes);
    }
    const Scalar done = tev + model_->cloud_broadcast(cloud.rng);
    er.last_time = std::max(er.last_time, done);
    if (broadcast) broadcast_edge_refresh(er, e, done);
    return;
  }

  const std::size_t p = ++cloud.version;
  ++er.admitted;
  er.tau_sum += static_cast<Scalar>(tau_e);
  er.max_tau = std::max(er.max_tau, tau_e);
  if (tau_e > 0) ++er.stale;

  // Roster: the edge alone. cloud_sync's worker push-down loops see an
  // all-absent worker roster and skip — in-flight workers are refreshed
  // through versioned downloads, not retroactive writes.
  er.roster_e.assign(rs.edges.size(), 0);
  er.roster_e[e] = 1;
  er.mpart->set_edge_roster(er.roster_e);
  rs.ctx.part = er.mpart.get();

  const Scalar alpha =
      es.weight_global * staleness_weight(cfg_.staleness_decay, tau_e);
  TierDamp cloud_tier(rs.cloud);
  TierDamp edge_tier(es);
  alg.cloud_sync(rs.ctx, p);
  cloud_tier.apply(alpha);
  edge_tier.apply(alpha);
  rs.ctx.part = nullptr;
  er.aggs[e].cloud_base = p;

  if (obs::enabled()) {
    obs::CommAccountant::global().record(obs::Link::kCloudToEdge, e,
                                         rs.edge_down_bytes);
    reg.counter("evt.cloud_syncs", er.policy_label).add();
  }

  const Scalar done = tev + model_->cloud_aggregate(cloud.rng) +
                      model_->cloud_broadcast(cloud.rng);
  er.last_time = std::max(er.last_time, done);
  // The fold moved the edge's model: version it and broadcast, so the
  // subtree converges on the cloud view causally.
  if (broadcast && es.x_plus != edge_tier.pre_model()) {
    broadcast_edge_refresh(er, e, done);
  }
  engine_.record_point(rs, er.steps_total / rs.workers.size(), rs.cloud.x,
                       done);
}

fl::RunResult AsyncEngine::run_event_driven(
    fl::Algorithm& alg, const fl::AvailabilityOracle* plan) {
  const obs::Span run_span("run:" + alg.name(), "evt");
  const fl::Topology& topo = engine_.topology();
  const fl::RunConfig& cfg = engine_.config();

  EvtRun er;
  if (plan != nullptr) {
    plan->validate(topo);
    if (!plan->is_noop()) er.plan = plan;
  }
  er.three_tier = alg.three_tier();
  er.K = cfg.total_iterations / cfg.tau;
  er.policy_label = std::string("policy=") + fl::to_string(cfg_.policy);

  fl::RunState& rs = er.rs;
  // Training state exactly as the barrier engine would build it (same seed →
  // same initial point, same batch streams); ctx.part stays null outside
  // aggregation/absence windows, where the roster view is swapped in.
  engine_.prepare_run(alg, nullptr, rs);

  const std::size_t W = topo.num_workers();
  const std::size_t E = topo.num_edges();
  er.mpart = std::make_unique<fl::Participation>(
      topo, engine_.provider().base_weights(), er.three_tier);
  if (er.plan != nullptr) {
    er.mpart->set_absent_policy(plan->absent_policy(), plan->absent_decay());
    rs.result.worker_miss_counts.assign(W, 0);
  }

  // Per-entity latency streams. The download streams are separate forks so
  // the split compute/upload/download events leave each worker's historical
  // compute+upload sequence untouched.
  er.cloud = E;
  er.aggs.resize(E + 1);
  Rng lroot(sim_.seed);
  er.wrng.reserve(W);
  er.wdrng.reserve(W);
  for (std::size_t w = 0; w < W; ++w) {
    er.wrng.push_back(lroot.fork(0xA5A50000u + w));
  }
  for (std::size_t w = 0; w < W; ++w) {
    er.wdrng.push_back(lroot.fork(0xD0DD0000u + w));
  }
  for (std::size_t e = 0; e < E; ++e) {
    er.aggs[e].rng = lroot.fork(0xE5E50000u + e);
  }
  er.aggs[er.cloud].rng = lroot.fork(0xC10D);

  er.w_interval.assign(W, 0);
  er.w_version.assign(W, 0);
  er.w_up.assign(W, 1);
  er.w_upq.resize(W);
  er.uplink_free.assign(W, 0.0);
  er.w_pending.resize(W);
  er.w_has_pending.assign(W, 0);
  // First adaptive deadline = margin × ewma = the configured base.
  const Scalar ewma0 = cfg_.deadline_margin > 0
                           ? cfg_.semi_async_deadline_s / cfg_.deadline_margin
                           : 0.0;
  for (Aggregator& ag : er.aggs) ag.deadline_ewma = ewma0;

  engine_.record_point(rs, 0, rs.cloud.x, 0.0);
  for (std::size_t w = 0; w < W; ++w) dispatch_compute(er, w, 0.0);

  obs::Registry& reg = obs::Registry::global();
  while (!er.q.empty()) {
    const Event ev = er.q.pop();
    er.last_time = std::max(er.last_time, ev.time);
    switch (ev.type) {
      case EventType::kWorkerReady:
        worker_arrival(alg, er, ev);
        break;
      case EventType::kWorkerUpload:
        upload_arrival(alg, er, ev);
        break;
      case EventType::kWorkerDownload:
        download_arrival(er, ev);
        break;
      case EventType::kEdgeSync:
        fire_deadline(alg, er, ev.entity, ev.time);
        break;
      case EventType::kCloudSync:
        if (er.three_tier) {
          cloud_edge_arrival(alg, er, ev.entity, ev.round, ev.time,
                             /*broadcast=*/true);
        } else {
          fire_deadline(alg, er, er.cloud, ev.time);
        }
        break;
      case EventType::kFault:
        if (obs::enabled()) reg.counter("evt.fault.transitions").add();
        break;
    }
  }

  // Terminal flush: edges still holding un-pushed aggregations (a partial π
  // window) hand them to the cloud in ascending edge order. No broadcast —
  // the queue is drained, so a download event would never be processed.
  if (er.three_tier) {
    for (std::size_t e = 0; e < E; ++e) {
      Aggregator& ag = er.aggs[e];
      if (ag.since_cloud > 0 && ag.version > 0) {
        ag.since_cloud = 0;
        const Scalar up = model_->edge_upload(ag.rng);
        cloud_edge_arrival(alg, er, e, ag.cloud_base, er.last_time + up,
                           /*broadcast=*/false);
      }
    }
  }

  // Final curve point at the final cloud model.
  const std::size_t final_iter = er.steps_total / W;
  if (rs.result.curve.back().iteration != final_iter ||
      rs.result.curve.size() == 1) {
    engine_.record_point(rs, final_iter, rs.cloud.x, er.last_time);
  }

  rs.result.sim_seconds = er.last_time;
  rs.result.admitted_updates = er.admitted;
  rs.result.stale_updates = er.stale;
  rs.result.dropped_updates = er.dropped;
  rs.result.max_staleness_seen = er.max_tau;
  rs.result.mean_staleness =
      er.admitted > 0 ? er.tau_sum / static_cast<Scalar>(er.admitted) : 0.0;
  rs.result.overlap_seconds = er.overlap_s;
  rs.result.downloads_applied = er.downloads_applied;
  rs.result.downloads_superseded = er.downloads_superseded;

  if (obs::enabled()) {
    reg.counter("evt.updates.admitted", er.policy_label).add(er.admitted);
    reg.counter("evt.updates.stale", er.policy_label).add(er.stale);
    reg.counter("evt.updates.dropped", er.policy_label).add(er.dropped);
    reg.counter("evt.uploads.arrived", er.policy_label)
        .add(er.uploads_arrived);
    reg.counter("evt.uploads.coalesced", er.policy_label)
        .add(er.uploads_coalesced);
    reg.counter("evt.downloads.scheduled", er.policy_label)
        .add(er.downloads_scheduled);
    reg.counter("evt.downloads.applied", er.policy_label)
        .add(er.downloads_applied);
    reg.counter("evt.downloads.superseded", er.policy_label)
        .add(er.downloads_superseded);
    reg.counter("evt.overlap_modeled_ms", er.policy_label)
        .add(static_cast<std::uint64_t>(er.overlap_s * 1e3));
    if (cfg_.adaptive_deadline) {
      // Mean over the aggregators that ran deadlines: the edges of a
      // three-tier run, the cloud of a two-tier one.
      Scalar mean_ewma = er.aggs[er.cloud].deadline_ewma;
      if (er.three_tier && E > 0) {
        mean_ewma = 0;
        for (std::size_t e = 0; e < E; ++e) mean_ewma += er.aggs[e].deadline_ewma;
        mean_ewma /= static_cast<Scalar>(E);
      }
      reg.gauge("evt.deadline.ewma_ms", er.policy_label)
          .set(static_cast<double>(mean_ewma * 1e3));
    }
  }

  engine_.finalize_run(alg, rs);
  return rs.result;
}

}  // namespace hfl::evt

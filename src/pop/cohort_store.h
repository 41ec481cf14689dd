// Lazy cohort materialization over a virtualized worker population.
//
// `CohortStore` is the one implementation of `fl::CohortProvider` and the
// one place worker state is built: the engine addresses workers by global
// id through an `fl::WorkerSet`, and only the current cohort is backed by
// real `fl::WorkerState`s. An engine with no attached provider builds a
// full-cohort store (`VirtConfig{}`) of its own, which materializes every
// worker once per run. Three lifecycle paths:
//
//   * first materialization — Algorithm 1's shared start: descriptor
//     weights (src/pop/population.h), x = y = x0, zero loss and
//     accumulators (fl::kIntervalAccumulators; Σv left empty: only the
//     algorithm that reads it sizes it, in init_worker), and worker i's
//     batch streams forked statelessly off the run root with
//     Rng::fork_nth(1000 + i, 2 + i) (fork 1 is the engine's init-model
//     stream), so a worker's streams do not depend on which workers were
//     materialized before it.
//   * spill — a worker leaving the cohort encodes its fl::WorkerSlice (x,
//     y, last loss, accumulators) and both batch-stream positions — every
//     mutable field — straight from its live state into a record in the
//     slab, with x and y interned in the slab's shared store (workers that
//     leave after the same broadcast hold the same bytes). Workers keep no
//     per-algorithm vectors, and the mini-batch gradient is per-step
//     scratch (fl::WorkerState::grad), so nothing else travels.
//   * restore — byte-exact resurrection: the worker resumes mid-run as if
//     it had stayed materialized the whole time (asserted by the
//     tests/pop_test.cpp round-trip; tests/pop_parity_test.cpp checks a
//     sampled run against a full-cohort run on the induced schedule).
//
// Turnover does no per-worker allocation in steady state. A departed
// state goes to a spare list once encoded; every arrival, restored or
// fresh, takes a spare and overwrites it in place — vectors keep their
// capacity and both batchers are reseeded or loaded in place. States carry
// no model: the engine binds its compiled gradient plan
// (WorkerState::plan) onto the cohort after every set_cohort.
//
// Spill record (host byte order, never outlives the run, so unversioned):
//   record   f64 last_loss; vec sum_grad, sum_y, sum_v
//            (fl::kIntervalAccumulators' order); batcher main, aux;
//            u64 interval stamp
//   vec      u64 n, u8 tag; tag 0 = raw (n scalars follow), tag 1 = every
//            element is +0.0 (nothing follows; −0.0 stays raw; only for
//            n ≤ model dimension, since a tag claims no bytes)
//   batcher  u64 cursor, 5 × u64 RNG state, u64 n, n × u32 sample index
// x and y are not in the record: they are its two references into the
// slab's shared-vector store (src/pop/slab.h), x first, each a model-sized
// dim × f64 string stored once however many records hold the same bytes.
// That is their one encoding. Encoding runs on the host pool; set_cohort's
// serial ingest interns x and y in ascending departure order and hands the
// references to the slab with the record. The interval accumulators are
// zero whenever a worker spills after an edge sync, so they cost a tag
// each; sum_v is empty (n = 0, tag 1) unless the run uses HierAdMo's
// kVelocity signal. The decoder checks every length against the bytes left
// before it sizes anything, and that x and y are model-sized: a corrupt
// record raises hfl::Error.
//
// Shared-store lifetime: a re-spill releases the worker's previous
// references (kept in the slab index, so the old record is not read), and a
// vector with no reference left frees its storage for the next new one. A
// restore leaves the record and its references in place until the worker's
// next spill.
//
// Cohort selection: exact weighted sampling by data mass D_i —
// without-replacement via the Fenwick sampler, or with-replacement via the
// alias table, in which case a worker drawn m times carries multiplicity m
// into the engine's roster scale. A store builds only the sampler it draws
// from, and a full-cohort store builds neither. Every round forks its own
// child stream from the run seed (fork_nth keyed on the round), so cohorts
// are deterministic at any thread count.
//
// Telemetry (obs gauges/counters): pop.population, pop.cohort_size,
// pop.materialized_workers, pop.materialized_peak, pop.spills, pop.restores,
// pop.spill_bytes and pop.restore_bytes (bytes into / out of the slab,
// shared vectors included), pop.slab.bytes and pop.slab.peak_bytes (the
// whole slab: records and shared vectors), pop.slab.shared_vectors and
// pop.slab.shared_bytes (live shared vectors), pop.spill.shared_hits
// (spilled x/y vectors that found an equal one stored).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/data/partitioner.h"
#include "src/fl/engine.h"
#include "src/pop/population.h"
#include "src/pop/sampler.h"
#include "src/pop/slab.h"

namespace hfl::pop {

struct VirtConfig {
  // Workers per cohort. 0 = materialize the full population (the store an
  // engine builds for itself when no provider is attached).
  std::size_t cohort_size = 0;
  // With-replacement (alias-table) draws instead of the default exact
  // without-replacement sampling: cohort_size draws every round, so it
  // samples even when cohort_size equals the population. Requires
  // cohort_size > 0.
  bool with_replacement = false;
  SlabConfig slab;
};

class CohortStore final : public fl::CohortProvider {
 public:
  // `data` and `partition` must outlive the store (pass the same objects
  // the engine was built from — the store replays their batch streams).
  // The model factory is unused (states carry no model) and kept only so
  // existing callers keep compiling.
  CohortStore(nn::ModelFactory factory, const data::TrainTest& data,
              const data::Partition& partition, const fl::Topology& topo,
              const fl::RunConfig& run, VirtConfig cfg);

  // fl::CohortProvider ------------------------------------------------------
  std::size_t population() const override { return pop_.num_workers(); }
  bool sampling() const override {
    return cfg_.cohort_size > 0 &&
           (cfg_.with_replacement || cfg_.cohort_size < pop_.num_workers());
  }
  std::vector<Scalar> base_weights() const override {
    return pop_.base_weights();
  }
  void begin_run(const Vec& x0) override;
  void sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                     std::vector<Scalar>& multiplicity) override;
  std::vector<fl::WorkerId> set_cohort(
      const std::vector<fl::WorkerId>& ids) override;
  fl::WorkerSet& workers() override { return view_; }
  // Cohort-turnover parallelism: record encoding and restore/fresh state
  // construction fan out per worker on the host pool; slab access, pool
  // growth and telemetry stay serial.
  // Bit-identical at any thread count (no cross-worker reductions).
  void attach_pool(ThreadPool* pool) override { host_pool_ = pool; }
  void begin_interval(std::size_t k) override { clock_ = k; }
  // Lazy absent-momentum replay: every spill records the interval clock;
  // a restore at clock m replays the policy (m − stamp) times — the exact
  // per-interval sequence a materialized absent worker would have received
  // from Algorithm::absent_sync, so kReset/kDecay oracles compose with
  // sampled cohorts without materializing anyone.
  void set_absent_replay(fl::AbsentPolicy policy, Scalar decay) override {
    replay_policy_ = policy;
    replay_decay_ = decay;
  }

  // Introspection (tests, bench) -------------------------------------------
  const Population& descriptors() const { return pop_; }
  const VirtConfig& config() const { return cfg_; }
  std::size_t num_materialized() const { return pool_.size(); }
  std::size_t peak_materialized() const { return peak_materialized_; }
  const Slab& slab() const { return slab_; }

 private:
  // Arrivals overwrite a recycled (or newly grown) state in place.
  void materialize_fresh(fl::WorkerState& w, fl::WorkerId id) const;
  void encode(const fl::WorkerState& w, std::vector<char>& record) const;
  void decode(fl::WorkerState& w, fl::WorkerId id,
              const Slab::Record& record) const;
  void set_descriptors(fl::WorkerState& w, fl::WorkerId id) const;
  // Run fn(i) for i in [0, n) on the host pool when one is attached, else
  // inline. Tasks must be per-index independent.
  void run_tasks(std::size_t n,
                 const std::function<void(std::size_t)>& fn) const;
  void publish_gauges();

  const data::TrainTest* data_;
  const data::Partition* partition_;
  const fl::Topology* topo_;
  fl::RunConfig run_;
  VirtConfig cfg_;
  Population pop_;

  Rng root_;       // Rng(run.seed): fork_nth source for worker streams
  Vec x0_;         // shared initial point of the current run
  Slab slab_;
  std::optional<AliasSampler> alias_;      // with-replacement stores only
  std::optional<FenwickSampler> fenwick_;  // without-replacement sampling only

  std::vector<fl::WorkerState> pool_;       // cohort states, ascending id
  std::vector<fl::WorkerState> next_;       // assembly buffer, swapped in
  std::vector<fl::WorkerState> spares_;     // departed, awaiting reuse
  std::vector<std::uint32_t> slot_of_id_;   // population-sized id → slot
  fl::WorkerSet view_;
  std::size_t peak_materialized_ = 0;

  ThreadPool* host_pool_ = nullptr;         // engine-attached, may be null
  std::size_t clock_ = 0;                   // current interval (0 = no clock)
  fl::AbsentPolicy replay_policy_ = fl::AbsentPolicy::kHold;
  Scalar replay_decay_ = 1.0;
  // Per-interval turnover scratch, reused so steady-state turnover does
  // no per-worker allocation: departing slots, per-arrival kind and record view,
  // encode buffers, and the file backend's read buffers.
  std::vector<std::uint32_t> departing_;
  std::vector<std::uint8_t> kind_;
  std::vector<Slab::Record> records_;
  std::vector<std::vector<char>> spill_bufs_;
  std::vector<std::vector<char>> restore_bufs_;
};

}  // namespace hfl::pop

#include "src/pop/cohort_store.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <limits>

#include "src/common/errors.h"
#include "src/common/vec_ops.h"
#include "src/obs/registry.h"

namespace hfl::pop {

namespace {

// Per-round sampling streams: child = root.fork_nth(kCohortSampleTag, k).
// The tag keeps cohort draws disjoint from the worker streams
// (fork_nth(1000 + i, 2 + i)) and the init stream (fork(0x1217)).
constexpr std::uint64_t kCohortSampleTag = 0xC0480A17ull;

// ---- spill record codec (layout in cohort_store.h) ----------------------

enum : std::uint8_t { kRawVec = 0, kZeroVec = 1 };

// The model-sized slice fields a record references in the slab's shared
// store, in the order of the record's references.
constexpr Vec fl::WorkerSlice::*kSharedFields[] = {&fl::WorkerSlice::x,
                                                    &fl::WorkerSlice::y};
static_assert(std::size(kSharedFields) <= Slab::kMaxRefs);

std::span<const char> as_bytes(const Vec& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(Scalar)};
}

// Every element is bitwise +0.0 (−0.0 does not count).
bool all_plus_zero(const Vec& v) {
  for (const Scalar s : v) {
    if (std::bit_cast<std::uint64_t>(s) != 0) return false;
  }
  return true;
}

struct Writer {
  std::vector<char>& b;
  std::size_t dim;  // model dimension: the longest a zero tag stands for

  void bytes(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    b.insert(b.end(), c, c + n);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void scalar(Scalar v) { bytes(&v, sizeof v); }
  void vec(const Vec& v) {
    u64(v.size());
    const std::uint8_t tag =
        v.size() <= dim && all_plus_zero(v) ? kZeroVec : kRawVec;
    bytes(&tag, 1);
    if (tag == kRawVec) bytes(v.data(), v.size() * sizeof(Scalar));
  }
  void batcher(const data::Batcher& bt) {
    u64(bt.cursor());
    const RngState rng = bt.rng_state();
    for (const std::uint64_t word : rng.s) u64(word);
    u64(rng.fork_counter);
    const std::vector<std::size_t>& idx = bt.indices();
    u64(idx.size());
    for (const std::size_t i : idx) {  // < dataset size ≤ 2^32 (ctor check)
      const auto i32 = static_cast<std::uint32_t>(i);
      bytes(&i32, sizeof i32);
    }
  }
};

struct Reader {
  const char* p;
  const char* end;
  std::size_t dim;  // model dimension

  // Claim `n` items of `size` bytes each; fails before anything is sized.
  const char* claim(std::uint64_t n, std::size_t size) {
    HFL_CHECK(n <= static_cast<std::uint64_t>(end - p) / size,
              "truncated worker spill record");
    const char* at = p;
    p += n * size;
    return at;
  }
  void take(void* out, std::size_t n) { std::memcpy(out, claim(n, 1), n); }
  std::uint64_t u64() {
    std::uint64_t v;
    take(&v, sizeof v);
    return v;
  }
  Scalar scalar() {
    Scalar v;
    take(&v, sizeof v);
    return v;
  }
  // Decodes into `v`'s storage; true when the vector was a zero tag.
  bool vec(Vec& v) {
    const std::uint64_t n = u64();
    std::uint8_t tag;
    take(&tag, 1);
    if (tag == kZeroVec) {
      HFL_CHECK(n <= dim, "zero-tagged spill vector longer than model");
      v.assign(n, 0.0);
      return true;
    }
    HFL_CHECK(tag == kRawVec, "unknown spill vector tag");
    const char* src = claim(n, sizeof(Scalar));
    v.resize(n);
    if (n > 0) std::memcpy(v.data(), src, n * sizeof(Scalar));
    return false;
  }
  void batcher(data::Batcher& bt) {
    const std::uint64_t cursor = u64();
    RngState rng;
    for (std::uint64_t& word : rng.s) word = u64();
    rng.fork_counter = u64();
    const std::uint64_t n = u64();
    const char* src = claim(n, sizeof(std::uint32_t));
    bt.load(
        n,
        [src](std::size_t i) {
          std::uint32_t v;
          std::memcpy(&v, src + i * sizeof v, sizeof v);
          return static_cast<std::size_t>(v);
        },
        cursor, rng);
  }
};

}  // namespace

CohortStore::CohortStore(nn::ModelFactory /*factory*/,
                         const data::TrainTest& data,
                         const data::Partition& partition,
                         const fl::Topology& topo, const fl::RunConfig& run,
                         VirtConfig cfg)
    : data_(&data),
      partition_(&partition),
      topo_(&topo),
      run_(run),
      cfg_(std::move(cfg)),
      pop_(topo, partition),
      root_(run.seed),
      slab_(cfg_.slab),
      view_(&pool_, &slot_of_id_) {
  HFL_CHECK(cfg_.cohort_size <= pop_.num_workers(),
            "cohort size exceeds the population");
  HFL_CHECK(!cfg_.with_replacement || cfg_.cohort_size > 0,
            "with-replacement sampling needs a cohort size (cohort_size > 0)");
  HFL_CHECK(data.train.size() <= std::numeric_limits<std::uint32_t>::max(),
            "spill records store sample indices as u32; dataset too large");
  slot_of_id_.assign(pop_.num_workers(), fl::WorkerSet::kNoSlot);
  if (cfg_.with_replacement) {
    alias_.emplace(pop_.base_weights());
  } else if (sampling()) {
    fenwick_.emplace(pop_.base_weights());
  }
}

void CohortStore::begin_run(const Vec& x0) {
  x0_ = x0;
  pool_.clear();
  next_.clear();
  spares_.clear();
  slot_of_id_.assign(pop_.num_workers(), fl::WorkerSet::kNoSlot);
  slab_.clear();
  peak_materialized_ = 0;
  clock_ = 0;
  replay_policy_ = fl::AbsentPolicy::kHold;  // until set_absent_replay
  replay_decay_ = 1.0;
  publish_gauges();
}

void CohortStore::run_tasks(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (host_pool_ != nullptr && n > 1) {
    host_pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void CohortStore::sample_cohort(std::size_t k, std::vector<fl::WorkerId>& ids,
                                std::vector<Scalar>& multiplicity) {
  HFL_CHECK(sampling(), "sample_cohort on a full-population store");
  Rng round = root_.fork_nth(kCohortSampleTag, k);
  ids.clear();
  multiplicity.clear();
  if (cfg_.with_replacement) {
    // m_i draws of worker i contribute mass m_i · D_i to the round's
    // aggregation (the roster scale), keeping the estimator unbiased.
    std::vector<fl::WorkerId> draws(cfg_.cohort_size);
    for (fl::WorkerId& d : draws) {
      d = static_cast<fl::WorkerId>(alias_->draw(round));
    }
    std::sort(draws.begin(), draws.end());
    for (std::size_t i = 0; i < draws.size();) {
      std::size_t j = i;
      while (j < draws.size() && draws[j] == draws[i]) ++j;
      ids.push_back(draws[i]);
      multiplicity.push_back(static_cast<Scalar>(j - i));
      i = j;
    }
  } else {
    std::vector<std::uint32_t> draws =
        fenwick_->sample(cfg_.cohort_size, round);
    std::sort(draws.begin(), draws.end());
    ids.assign(draws.begin(), draws.end());
    multiplicity.assign(ids.size(), 1.0);
  }
}

std::vector<fl::WorkerId> CohortStore::set_cohort(
    const std::vector<fl::WorkerId>& ids) {
  HFL_CHECK(!x0_.empty(), "set_cohort before begin_run");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    HFL_CHECK(ids[i] < pop_.num_workers(), "cohort id out of range");
    HFL_CHECK(i == 0 || ids[i - 1] < ids[i],
              "cohort ids must be ascending and unique");
  }

  // Spill every current worker that is not in the new cohort (both lists
  // are ascending, so one merge pass finds the departures). Encoding fans
  // out per departure — each task reads one worker and writes one private
  // buffer — while the slab (not thread-safe: shared index, shared store,
  // file cursor, byte counters) ingests the records serially in
  // ascending-id order afterwards: it interns each worker's x and y and
  // stores the record with their references. What the slab shares
  // therefore does not depend on the thread count. Encoded states then wait
  // on the spare list.
  departing_.clear();
  std::size_t j = 0;
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    while (j < ids.size() && ids[j] < pool_[s].id) ++j;
    if (j == ids.size() || ids[j] != pool_[s].id) {
      departing_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  if (spill_bufs_.size() < departing_.size()) {
    spill_bufs_.resize(departing_.size());
  }
  run_tasks(departing_.size(), [&](std::size_t i) {
    encode(pool_[departing_[i]], spill_bufs_[i]);
  });
  const std::uint64_t written0 = slab_.bytes_written();
  const std::uint64_t hits0 = slab_.shared_hits();
  for (std::size_t i = 0; i < departing_.size(); ++i) {
    fl::WorkerState& w = pool_[departing_[i]];
    std::uint32_t refs[std::size(kSharedFields)];
    for (std::size_t k = 0; k < std::size(refs); ++k) {
      refs[k] = slab_.share(as_bytes(w.*kSharedFields[k]));
    }
    slab_.put(w.id, spill_bufs_[i], refs);
    slot_of_id_[w.id] = fl::WorkerSet::kNoSlot;
    spares_.push_back(std::move(w));
  }
  const std::uint64_t spill_bytes = slab_.bytes_written() - written0;

  // Assemble the new cohort in `next_`: stayers move over, arrivals take a
  // spare. Phase 1 (serial) classifies each slot, fetches the slab records
  // and grows the pool when the spares run out (the factory is
  // caller-supplied and not required to be thread-safe); phase 2 fans the
  // heavy work out per arrival — record decode, absent-policy replay,
  // fresh state and batch-stream reconstruction — into disjoint slots.
  // fork_nth is const (stateless child derivation), so concurrent fresh
  // materializations off the shared root are safe.
  enum : std::uint8_t { kKeep, kRestore, kFresh };
  next_.resize(ids.size());
  kind_.resize(ids.size());
  records_.resize(ids.size());
  if (restore_bufs_.size() < ids.size()) restore_bufs_.resize(ids.size());
  std::vector<fl::WorkerId> fresh;
  std::size_t num_restored = 0;
  const std::uint64_t read0 = slab_.bytes_read();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const fl::WorkerId id = ids[i];
    const std::uint32_t slot = slot_of_id_[id];
    if (slot != fl::WorkerSet::kNoSlot) {
      kind_[i] = kKeep;
      next_[i] = std::move(pool_[slot]);
      continue;
    }
    if (slab_.contains(id)) {
      kind_[i] = kRestore;
      records_[i] = slab_.get(id, restore_bufs_[i]);
      ++num_restored;
    } else {
      kind_[i] = kFresh;
      fresh.push_back(id);
    }
    if (!spares_.empty()) {
      next_[i] = std::move(spares_.back());
      spares_.pop_back();
    } else {
      fl::WorkerState& w = next_[i];
      w = fl::WorkerState{};
      w.batcher =
          std::make_unique<data::Batcher>(data_->train, run_.batch_size);
      w.aux_batcher =
          std::make_unique<data::Batcher>(data_->train, run_.batch_size);
    }
  }
  const std::uint64_t restore_bytes = slab_.bytes_read() - read0;
  run_tasks(ids.size(), [&](std::size_t i) {
    if (kind_[i] == kRestore) decode(next_[i], ids[i], records_[i]);
    if (kind_[i] == kFresh) materialize_fresh(next_[i], ids[i]);
  });

  std::swap(pool_, next_);
  for (std::size_t s = 0; s < pool_.size(); ++s) {
    slot_of_id_[pool_[s].id] = static_cast<std::uint32_t>(s);
  }
  peak_materialized_ = std::max(peak_materialized_, pool_.size());
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    if (!departing_.empty()) {
      reg.counter("pop.spills").add(departing_.size());
      reg.counter("pop.spill_bytes").add(spill_bytes);
      reg.counter("pop.spill.shared_hits").add(slab_.shared_hits() - hits0);
    }
    if (num_restored > 0) {
      reg.counter("pop.restores").add(num_restored);
      reg.counter("pop.restore_bytes").add(restore_bytes);
    }
    if (!fresh.empty()) {
      reg.counter("pop.materializations").add(fresh.size());
    }
  }
  publish_gauges();
  return fresh;
}

void CohortStore::set_descriptors(fl::WorkerState& w, fl::WorkerId id) const {
  const std::size_t i = id;
  w.id = id;
  w.edge = pop_.edge_of(i);
  w.num_samples = pop_.num_samples(i);
  w.weight_in_edge = pop_.weight_in_edge(i);
  w.weight_global = pop_.weight_global(i);
}

void CohortStore::materialize_fresh(fl::WorkerState& w,
                                    fl::WorkerId id) const {
  const std::size_t n = x0_.size();
  const std::size_t i = id;
  set_descriptors(w, id);
  w.x = x0_;
  w.y = x0_;
  w.last_loss = 0;
  // An accumulator that is not model-sized (Σv) is sized by the algorithm
  // that reads it (init_worker).
  for (const fl::IntervalAccumulator& acc : fl::kIntervalAccumulators) {
    (w.*acc.vec).assign(acc.model_sized ? n : 0, 0.0);
  }
  // Worker i's stream is the (2 + i)-th fork of the run root (fork 1 is the
  // engine's init-model stream, Engine::build_states).
  Rng wrng = root_.fork_nth(1000 + i, 2 + i);
  w.batcher->reseed((*partition_)[i], wrng.fork(1));
  w.aux_batcher->reseed((*partition_)[i], wrng.fork(2));
}

// Every slice field is listed by hand in encode and decode below, in the
// event engine's DownloadMsg and diffed by its diff_pushdown; UploadSnapshot
// copies the slice whole.
static_assert(sizeof(fl::WorkerSlice) == 5 * sizeof(Vec) + sizeof(Scalar),
              "a new fl::WorkerSlice field must travel through the spill "
              "codec (CohortStore::encode/decode), the event engine's "
              "UploadSnapshot and its DownloadMsg (src/evt/async_engine.cpp)");

void CohortStore::encode(const fl::WorkerState& w,
                         std::vector<char>& record) const {
  // x and y go to the shared store in set_cohort's serial ingest.
  record.clear();
  Writer out{record, x0_.size()};
  out.scalar(w.last_loss);
  for (const fl::IntervalAccumulator& acc : fl::kIntervalAccumulators) {
    out.vec(w.*acc.vec);
  }
  out.batcher(*w.batcher);
  out.batcher(*w.aux_batcher);
  // Interval stamp: the worker has observed every synchronization finish
  // up to (not including) the interval whose set_cohort spilled it.
  out.u64(clock_);
}

void CohortStore::decode(fl::WorkerState& w, fl::WorkerId id,
                         const Slab::Record& record) const {
  // Descriptor fields are rebuilt; everything mutable comes back byte for
  // byte, decoded into the recycled storage.
  set_descriptors(w, id);
  const std::span<const char> bytes = record.bytes;
  const std::size_t dim = x0_.size();
  for (std::size_t k = 0; k < std::size(kSharedFields); ++k) {
    const std::span<const char> src = record.shared[k];
    HFL_CHECK(src.size() == dim * sizeof(Scalar),
              "worker spill record lacks a model-sized shared x or y");
    Vec& v = w.*kSharedFields[k];
    v.resize(dim);
    std::memcpy(v.data(), src.data(), src.size());
  }
  Reader in{bytes.data(), bytes.data() + bytes.size(), dim};
  w.last_loss = in.scalar();
  constexpr std::size_t kAccs = std::size(fl::kIntervalAccumulators);
  bool zero_acc[kAccs];  // decoded from a zero tag
  for (std::size_t a = 0; a < kAccs; ++a) {
    zero_acc[a] = in.vec(w.*fl::kIntervalAccumulators[a].vec);
  }
  in.batcher(*w.batcher);
  in.batcher(*w.aux_batcher);
  const std::uint64_t stamp = in.u64();
  HFL_CHECK(in.p == in.end, "worker spill record has trailing bytes");

  // Absent-policy replay: the worker missed every interval from its spill
  // stamp up to (not including) the current one. A materialized absent
  // worker gets the policy (fl::apply_absent_policy) once at the end of
  // each missed interval, and nothing else touches an absent worker's state
  // in between, so replaying the exact per-interval sequence here is
  // bit-identical (kDecay's repeated y ← x + d(y − x) does NOT fold into a
  // single d^m application in floating point — the loop is the contract).
  // kReset is idempotent and applied once; kHold holds, which spilled
  // state already does.
  HFL_CHECK(stamp <= clock_, "worker spill stamp is from the future");
  const std::uint64_t missed = clock_ - stamp;
  if (missed == 0) return;
  switch (replay_policy_) {
    case fl::AbsentPolicy::kHold:
      break;
    case fl::AbsentPolicy::kReset:
      fl::apply_absent_policy(w, replay_policy_, replay_decay_);
      break;
    case fl::AbsentPolicy::kDecay: {
      // kDecay's passes touch disjoint vectors, so replaying each vector's
      // m passes in turn keeps every element's per-interval op sequence.
      // A zero-tagged vector decoded as +0, and +0·d = +0 for 0 ≤ d ≤ 1,
      // so its passes are skipped.
      const Scalar d = replay_decay_;
      const bool skip_zero = d >= 0.0 && d <= 1.0;
      for (std::uint64_t m = 0; m < missed; ++m) vec::decay_toward(w.y, w.x, d);
      for (std::size_t a = 0; a < kAccs; ++a) {
        if (zero_acc[a] && skip_zero) continue;
        Vec& v = w.*fl::kIntervalAccumulators[a].vec;
        for (std::uint64_t m = 0; m < missed; ++m) vec::scale(v, d);
      }
      break;
    }
  }
}

void CohortStore::publish_gauges() {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("pop.population").set(static_cast<double>(pop_.num_workers()));
  reg.gauge("pop.cohort_size").set(static_cast<double>(cfg_.cohort_size));
  reg.gauge("pop.materialized_workers")
      .set(static_cast<double>(pool_.size()));
  reg.gauge("pop.materialized_peak")
      .set_max(static_cast<double>(peak_materialized_));
  reg.gauge("pop.slab.bytes").set(static_cast<double>(slab_.bytes()));
  reg.gauge("pop.slab.peak_bytes")
      .set_max(static_cast<double>(slab_.peak_bytes()));
  reg.gauge("pop.slab.shared_vectors")
      .set(static_cast<double>(slab_.num_shared()));
  reg.gauge("pop.slab.shared_bytes")
      .set(static_cast<double>(slab_.shared_bytes()));
}

}  // namespace hfl::pop

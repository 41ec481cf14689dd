#include "src/pop/cohort_store.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string_view>

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

// Every element is bitwise +0.0 (−0.0 does not count).
bool all_plus_zero(const Vec& v) {
  for (const Scalar s : v) {
    if (std::bit_cast<std::uint64_t>(s) != 0) return false;
  }
  return true;
}

struct Writer {
  std::vector<char>& b;
  std::size_t zero_max;  // longest vector a zero tag may stand for

  void bytes(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    b.insert(b.end(), c, c + n);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void scalar(Scalar v) { bytes(&v, sizeof v); }
  void vec(const Vec& v) {
    u64(v.size());
    const std::uint8_t tag =
        v.size() <= zero_max && all_plus_zero(v) ? kZeroVec : kRawVec;
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
  std::size_t zero_max;

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
      HFL_CHECK(n <= zero_max, "zero-tagged spill vector longer than model");
      v.assign(n, 0.0);
      return true;
    }
    HFL_CHECK(tag == kRawVec, "unknown spill vector tag");
    const char* src = claim(n, sizeof(Scalar));
    v.resize(n);
    if (n > 0) std::memcpy(v.data(), src, n * sizeof(Scalar));
    return false;
  }
  std::string_view name() {
    const std::uint64_t n = u64();
    return {claim(n, 1), static_cast<std::size_t>(n)};
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

CohortStore::CohortStore(nn::ModelFactory factory, const data::TrainTest& data,
                         const data::Partition& partition,
                         const fl::Topology& topo, const fl::RunConfig& run,
                         VirtConfig cfg)
    : factory_(std::move(factory)),
      data_(&data),
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
  // buffer — while the slab (not thread-safe: shared index, file cursor,
  // byte counters) ingests the records serially in ascending-id order
  // afterwards. Encoded states then wait on the spare list.
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
  std::uint64_t spill_bytes = 0;
  for (std::size_t i = 0; i < departing_.size(); ++i) {
    fl::WorkerState& w = pool_[departing_[i]];
    slab_.put(w.id, spill_bufs_[i]);
    spill_bytes += spill_bufs_[i].size();
    slot_of_id_[w.id] = fl::WorkerSet::kNoSlot;
    spares_.push_back(std::move(w));
  }

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
  std::uint64_t restore_bytes = 0;
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
      restore_bytes += records_[i].size();
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
      if (plan_ == nullptr) w.model = factory_();
      w.batcher =
          std::make_unique<data::Batcher>(data_->train, run_.batch_size);
      w.aux_batcher =
          std::make_unique<data::Batcher>(data_->train, run_.batch_size);
    }
  }
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
  w.plan = plan_;
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
  w.v.assign(n, 0.0);
  w.grad.assign(n, 0.0);
  w.last_loss = 0;
  w.sum_grad.assign(n, 0.0);
  w.sum_y.assign(n, 0.0);
  w.sum_v.assign(n, 0.0);
  w.extra.clear();
  // Worker i's stream is the (2 + i)-th fork of the run root (fork 1 is the
  // engine's init-model stream, Engine::build_states).
  Rng wrng = root_.fork_nth(1000 + i, 2 + i);
  w.batcher->reseed((*partition_)[i], wrng.fork(1));
  w.aux_batcher->reseed((*partition_)[i], wrng.fork(2));
}

void CohortStore::encode(const fl::WorkerState& w,
                         std::vector<char>& record) const {
  record.clear();
  Writer out{record, x0_.size()};
  out.vec(w.x);
  out.vec(w.y);
  out.vec(w.v);
  out.vec(w.grad);
  out.scalar(w.last_loss);
  out.vec(w.sum_grad);
  out.vec(w.sum_y);
  out.vec(w.sum_v);
  out.u64(w.extra.size());
  for (const auto& [name, vec] : w.extra) {  // std::map: ascending names
    out.u64(name.size());
    out.bytes(name.data(), name.size());
    out.vec(vec);
  }
  out.batcher(*w.batcher);
  out.batcher(*w.aux_batcher);
  // Interval stamp: the worker has observed every synchronization finish
  // up to (not including) the interval whose set_cohort spilled it.
  out.u64(clock_);
}

void CohortStore::decode(fl::WorkerState& w, fl::WorkerId id,
                         std::span<const char> record) const {
  // Descriptor fields (and the plan binding) are rebuilt and a recycled
  // scratch model is kept (it holds no cross-batch state); everything
  // mutable comes back byte for byte, decoded into the recycled storage.
  set_descriptors(w, id);
  Reader in{record.data(), record.data() + record.size(), x0_.size()};
  in.vec(w.x);
  in.vec(w.y);
  const bool zero_v = in.vec(w.v);
  in.vec(w.grad);
  w.last_loss = in.scalar();
  const bool zero_sum_grad = in.vec(w.sum_grad);
  const bool zero_sum_y = in.vec(w.sum_y);
  const bool zero_sum_v = in.vec(w.sum_v);
  // Merge the record's extras into the recycled map: a name both hold
  // keeps its node and vector storage.
  const std::uint64_t extras = in.u64();
  auto it = w.extra.begin();
  std::string_view prev;
  for (std::uint64_t e = 0; e < extras; ++e) {
    const std::string_view name = in.name();
    HFL_CHECK(e == 0 || prev < name, "spill record extras out of order");
    prev = name;
    while (it != w.extra.end() && std::string_view(it->first) < name) {
      it = w.extra.erase(it);
    }
    if (it == w.extra.end() || it->first != name) {
      it = w.extra.emplace_hint(it, std::string(name), Vec{});
    }
    in.vec(it->second);
    ++it;
  }
  w.extra.erase(it, w.extra.end());
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
      const std::pair<Vec*, bool> scaled[] = {{&w.v, zero_v},
                                              {&w.sum_grad, zero_sum_grad},
                                              {&w.sum_y, zero_sum_y},
                                              {&w.sum_v, zero_sum_v}};
      for (const auto& [v, zero] : scaled) {
        if (zero && skip_zero) continue;
        for (std::uint64_t m = 0; m < missed; ++m) vec::scale(*v, d);
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
}

}  // namespace hfl::pop

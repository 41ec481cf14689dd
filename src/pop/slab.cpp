#include "src/pop/slab.h"

#include <algorithm>
#include <cstring>

#include "src/common/errors.h"

namespace hfl::pop {

namespace {

// kMemory arena chunk. Chunks are allocated uninitialized, so the pages of
// the newest chunk are touched only as extents fill it.
constexpr std::uint64_t kChunkBytes = std::uint64_t{4} << 20;

}  // namespace

Slab::Slab(SlabConfig cfg) : cfg_(std::move(cfg)) {
  recent_.fill(kNoShared);
  if (cfg_.backend == SlabConfig::Backend::kFile) {
    HFL_CHECK(!cfg_.path.empty(), "file slab needs a path");
    open_file();
  }
}

void Slab::open_file() {
  if (file_.is_open()) file_.close();
  // Truncate: a slab never outlives the run that filled it.
  file_.open(cfg_.path, std::ios::binary | std::ios::in | std::ios::out |
                            std::ios::trunc);
  HFL_CHECK(file_.is_open(), "cannot open slab spill file " + cfg_.path);
}

void Slab::clear() {
  index_.clear();
  shared_.clear();
  free_shared_.clear();
  recent_.fill(kNoShared);
  chunks_.clear();
  chunk_used_ = 0;
  chunk_size_ = 0;
  if (cfg_.backend == SlabConfig::Backend::kFile) open_file();
  bytes_ = 0;
  bytes_written_ = 0;
  bytes_read_ = 0;
  shared_bytes_ = 0;
  shared_hits_ = 0;
}

Slab::Extent Slab::reserve(std::size_t n) {
  Extent e;
  e.capacity = n;
  if (cfg_.backend == SlabConfig::Backend::kMemory) {
    if (chunks_.empty() || chunk_size_ - chunk_used_ < n) {
      chunk_size_ = std::max<std::uint64_t>(kChunkBytes, n);
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(chunk_size_));
      chunk_used_ = 0;
    }
    e.chunk = static_cast<std::uint32_t>(chunks_.size() - 1);
    e.offset = chunk_used_;
    chunk_used_ += n;
  } else {
    e.offset = bytes_;  // append at the end of the file
  }
  bytes_ += n;
  return e;
}

void Slab::store(Extent& e, std::span<const char> data) {
  bytes_written_ += data.size();
  if (e.capacity < data.size()) e = reserve(data.size());
  e.length = data.size();
  if (cfg_.backend == SlabConfig::Backend::kMemory) {
    if (!data.empty()) std::memcpy(at(e), data.data(), data.size());
  } else {
    file_.seekp(static_cast<std::streamoff>(e.offset));
    file_.write(data.data(), static_cast<std::streamsize>(data.size()));
    HFL_CHECK(file_.good(), "slab spill write failed: " + cfg_.path);
  }
}

std::span<const char> Slab::load(const Extent& e, std::vector<char>& buf,
                                 std::size_t pos) {
  const auto n = static_cast<std::size_t>(e.length);
  if (n == 0) return {};  // an empty record may have no storage behind it
  if (cfg_.backend == SlabConfig::Backend::kMemory) return {at(e), n};
  file_.seekg(static_cast<std::streamoff>(e.offset));
  file_.read(buf.data() + pos, static_cast<std::streamsize>(n));
  HFL_CHECK(file_.good(), "slab spill read failed: " + cfg_.path);
  return {buf.data() + pos, n};
}

bool Slab::holds(const Shared& s, std::span<const char> blob) {
  if (s.extent.length != blob.size()) return false;
  if (cfg_.backend == SlabConfig::Backend::kFile) {
    compare_buf_.resize(blob.size());
  }
  const std::span<const char> stored = load(s.extent, compare_buf_, 0);
  return std::memcmp(stored.data(), blob.data(), blob.size()) == 0;
}

std::uint32_t Slab::share(std::span<const char> blob) {
  std::uint32_t sid = kNoShared;
  for (const std::uint32_t r : recent_) {
    if (r != kNoShared && shared_[r].refs > 0 && holds(shared_[r], blob)) {
      sid = r;
      break;
    }
  }
  if (sid != kNoShared) {
    ++shared_[sid].refs;
    ++shared_hits_;
  } else {
    if (free_shared_.empty()) {
      HFL_CHECK(shared_.size() < kNoShared,
                "slab shared-vector ids exhausted");
      sid = static_cast<std::uint32_t>(shared_.size());
      shared_.emplace_back();
    } else {
      sid = free_shared_.back();
      free_shared_.pop_back();
    }
    Shared& s = shared_[sid];
    store(s.extent, blob);  // reuses the freed string's storage when it fits
    s.refs = 1;
    shared_bytes_ += blob.size();
  }
  // Move to the front of the strings shared last.
  const auto pos = std::find(recent_.begin(), recent_.end() - 1, sid);
  std::copy_backward(recent_.begin(), pos, pos + 1);
  recent_[0] = sid;
  return sid;
}

void Slab::release(std::uint32_t sid) {
  Shared& s = shared_[sid];
  if (--s.refs > 0) return;
  free_shared_.push_back(sid);
  shared_bytes_ -= s.extent.length;
}

void Slab::put(std::uint32_t id, std::span<const char> record,
               std::span<const std::uint32_t> refs) {
  HFL_CHECK(refs.size() <= kMaxRefs, "too many shared references");
  std::array<std::uint32_t, kMaxRefs> taken;
  taken.fill(kNoShared);
  for (std::size_t k = 0; k < refs.size(); ++k) {
    HFL_CHECK(refs[k] < shared_.size() && shared_[refs[k]].refs > 0,
              "record references a shared vector it was not given");
    taken[k] = refs[k];
  }
  auto [it, added] = index_.try_emplace(id);
  Entry& e = it->second;
  if (added) e.refs.fill(kNoShared);
  store(e.extent, record);
  std::swap(e.refs, taken);  // `taken` now holds the previous references
  for (const std::uint32_t sid : taken) {
    if (sid != kNoShared) release(sid);
  }
}

Slab::Record Slab::get(std::uint32_t id, std::vector<char>& buf) {
  const auto it = index_.find(id);
  HFL_CHECK(it != index_.end(),
            "worker " + std::to_string(id) + " has no spilled state");
  const Entry& e = it->second;
  Record r;
  // kFile reads the record and its shared strings back to back into `buf`,
  // sized once up front so the views stay valid.
  std::size_t total = e.extent.length;
  for (const std::uint32_t sid : e.refs) {
    if (sid != kNoShared) total += shared_[sid].extent.length;
  }
  bytes_read_ += total;
  if (cfg_.backend == SlabConfig::Backend::kFile) buf.resize(total);
  r.bytes = load(e.extent, buf, 0);
  std::size_t at = e.extent.length;
  for (std::size_t k = 0; k < kMaxRefs; ++k) {
    if (e.refs[k] == kNoShared) continue;
    r.shared[k] = load(shared_[e.refs[k]].extent, buf, at);
    at += r.shared[k].size();
  }
  return r;
}

}  // namespace hfl::pop

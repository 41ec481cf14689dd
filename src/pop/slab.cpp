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
  chunks_.clear();
  chunk_used_ = 0;
  chunk_size_ = 0;
  if (cfg_.backend == SlabConfig::Backend::kFile) open_file();
  bytes_ = 0;
  bytes_written_ = 0;
  bytes_read_ = 0;
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

void Slab::put(std::uint32_t id, std::span<const char> record) {
  bytes_written_ += record.size();
  auto [it, added] = index_.try_emplace(id);
  Extent& e = it->second;
  if (added || e.capacity < record.size()) e = reserve(record.size());
  e.length = record.size();
  if (cfg_.backend == SlabConfig::Backend::kMemory) {
    if (!record.empty()) std::memcpy(at(e), record.data(), record.size());
  } else {
    file_.seekp(static_cast<std::streamoff>(e.offset));
    file_.write(record.data(), static_cast<std::streamsize>(record.size()));
    HFL_CHECK(file_.good(), "slab spill write failed: " + cfg_.path);
  }
}

std::span<const char> Slab::get(std::uint32_t id, std::vector<char>& buf) {
  const auto it = index_.find(id);
  HFL_CHECK(it != index_.end(),
            "worker " + std::to_string(id) + " has no spilled state");
  const Extent& e = it->second;
  bytes_read_ += e.length;
  if (cfg_.backend == SlabConfig::Backend::kMemory) {
    return {at(e), static_cast<std::size_t>(e.length)};
  }
  buf.resize(e.length);
  file_.seekg(static_cast<std::streamoff>(e.offset));
  file_.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  HFL_CHECK(file_.good(), "slab spill read failed: " + cfg_.path);
  return {buf.data(), buf.size()};
}

}  // namespace hfl::pop

// Spill storage for evicted worker states.
//
// When a sampled cohort rotates, the workers leaving the cohort encode their
// mutable state (the worker's aggregation-visible slice and batch-stream
// positions) into the slab; a worker re-entering a later cohort decodes the
// exact bytes and resumes bit-identically. One id → extent index serves two
// backends:
//
//   * kMemory — extents carved from large arena chunks; get() lends a view
//     into the chunk instead of copying out.
//   * kFile   — extents in one spill file; get() reads into a caller buffer.
//
// A re-spill rewrites the worker's extent in place when the record fits it,
// which it does whenever the record is no longer than the worker's first
// one; a longer record moves to a new extent and the old one is dead
// space. Records of a run keep their length unless a vector that was all
// zero at one spill is not at the next, so storage is bounded by distinct
// workers ever sampled × record size, not by the number of spills.
// bytes() is the storage reserved for extents (the file size, for kFile).
//
// The slab is a dumb byte store: the record codec lives in
// cohort_store.cpp, telemetry (pop.slab.* gauges) is updated by the owner
// from the byte counters here.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace hfl::pop {

struct SlabConfig {
  enum class Backend { kMemory, kFile };
  Backend backend = Backend::kMemory;
  // kFile only: spill-file path (created/truncated on first use).
  std::string path = "hfl_pop_slab.bin";
};

class Slab {
 public:
  explicit Slab(SlabConfig cfg);

  // Drop every record (a new run starts with an empty slab). Byte counters
  // reset; the file backend truncates.
  void clear();

  bool contains(std::uint32_t id) const {
    return index_.find(id) != index_.end();
  }

  // Store `record` for `id`, replacing any previous spill of the same
  // worker (in place when it fits).
  void put(std::uint32_t id, std::span<const char> record);

  // `id`'s record. kMemory returns a view into slab storage, valid until the
  // next put or clear; kFile reads into `buf` and returns a view of it. The
  // id must be present.
  std::span<const char> get(std::uint32_t id, std::vector<char>& buf);

  std::size_t num_entries() const { return index_.size(); }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes() const { return bytes_; }
  // Storage never shrinks within a run, so the high-water mark is bytes().
  std::uint64_t peak_bytes() const { return bytes_; }

 private:
  struct Extent {
    std::uint32_t chunk = 0;    // kMemory: arena chunk
    std::uint64_t offset = 0;   // into the chunk (kMemory) or file (kFile)
    std::uint64_t length = 0;   // current record
    std::uint64_t capacity = 0;
  };

  void open_file();
  // Reserve a new extent of `n` bytes.
  Extent reserve(std::size_t n);
  char* at(const Extent& e) { return chunks_[e.chunk].get() + e.offset; }

  SlabConfig cfg_;
  std::unordered_map<std::uint32_t, Extent> index_;
  std::vector<std::unique_ptr<char[]>> chunks_;  // kMemory
  std::uint64_t chunk_used_ = 0;   // bytes reserved in chunks_.back()
  std::uint64_t chunk_size_ = 0;   // size of chunks_.back()
  std::fstream file_;              // kFile
  std::uint64_t bytes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace hfl::pop

// Spill storage for evicted worker states.
//
// When a sampled cohort rotates, the workers leaving the cohort encode their
// mutable state (the worker's aggregation-visible slice and batch-stream
// positions) into the slab; a worker re-entering a later cohort decodes the
// exact bytes and resumes bit-identically. One storage holds two kinds of
// blob, on either backend:
//
//   * kMemory — extents carved from large arena chunks; get() lends views
//     into the chunks instead of copying out.
//   * kFile   — extents in one spill file; get() reads into a caller buffer.
//
// Records: one per worker id, in an id → extent index. A re-spill rewrites
// the worker's extent in place when the record fits it, which it does
// whenever the record is no longer than the worker's first one; a longer
// record moves to a new extent and the old one is dead space. Records of a
// run keep their length unless a vector that was all zero at one spill is
// not at the next.
//
// Shared vectors: a reference-counted store of byte strings that records
// reference by id (a spill record's x and y, src/pop/cohort_store.h).
// share() compares its string with the kRecent strings it returned last and
// adds a reference to one with the same bytes, or stores a new one:
// equality is decided by memcmp, so −0.0 and +0.0 never share and restores
// stay byte-exact. Workers leaving after the same broadcast spill one
// after another, and a worker's x and y are often the same bytes, so the
// recent window finds nearly every copy without an index; a string equal
// to an older one is simply stored again. A record holds up to kMaxRefs
// references, kept in its index entry: put() hands the new record's
// references over and releases the previous record's, so a re-spill never
// reads the old record. A string whose last reference goes is dropped, and
// the next new string reuses its id and storage.
//
// Storage is bounded by distinct workers ever sampled × record size plus
// the peak number of distinct live shared strings, not by the number of
// spills. bytes() is the storage reserved for both kinds of extent (the
// file size, for kFile). The record codec lives in cohort_store.cpp;
// telemetry (pop.slab.* gauges) is updated by the owner from the counters
// here.
#pragma once

#include <array>
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
  static constexpr std::uint32_t kNoShared = 0xFFFFFFFFu;
  static constexpr std::size_t kMaxRefs = 2;  // shared strings per record
  static constexpr std::size_t kRecent = 8;   // strings share() compares

  // One worker's record and the shared strings it references, in put()'s
  // order (empty where the record has fewer references).
  struct Record {
    std::span<const char> bytes;
    std::array<std::span<const char>, kMaxRefs> shared;
  };

  explicit Slab(SlabConfig cfg);

  // Drop every record and shared string (a new run starts with an empty
  // slab). Byte counters reset; the file backend truncates.
  void clear();

  bool contains(std::uint32_t id) const {
    return index_.find(id) != index_.end();
  }

  // Add a reference to one of the last kRecent shared strings whose bytes
  // equal `blob`'s, or to a new string holding `blob`, and return its id.
  // kFile reads each string it compares back from the file. The reference
  // is the caller's until it hands it to put().
  std::uint32_t share(std::span<const char> blob);

  // Store `record` for `id`, replacing any previous spill of the same
  // worker (in place when it fits). The record takes over `refs` (shared
  // ids from share(), at most kMaxRefs); the previous record's references
  // are released.
  void put(std::uint32_t id, std::span<const char> record,
           std::span<const std::uint32_t> refs = {});

  // `id`'s record and its shared strings. kMemory returns views into slab
  // storage, valid until the next share, put or clear; kFile reads into
  // `buf` and returns views of it. The id must be present.
  Record get(std::uint32_t id, std::vector<char>& buf);

  std::size_t num_entries() const { return index_.size(); }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes() const { return bytes_; }
  // Storage never shrinks within a run, so the high-water mark is bytes().
  std::uint64_t peak_bytes() const { return bytes_; }
  // Live shared strings (referenced at least once) and their bytes.
  std::size_t num_shared() const {
    return shared_.size() - free_shared_.size();
  }
  std::uint64_t shared_bytes() const { return shared_bytes_; }
  // share() calls that found an equal string among the recent ones.
  std::uint64_t shared_hits() const { return shared_hits_; }

 private:
  struct Extent {
    std::uint32_t chunk = 0;    // kMemory: arena chunk
    std::uint64_t offset = 0;   // into the chunk (kMemory) or file (kFile)
    std::uint64_t length = 0;   // current contents
    std::uint64_t capacity = 0;
  };
  struct Entry {  // a worker's record
    Extent extent;
    std::array<std::uint32_t, kMaxRefs> refs;
  };
  struct Shared {
    Extent extent;
    std::uint32_t refs = 0;  // 0 = free
  };

  void open_file();
  // Reserve a new extent of `n` bytes.
  Extent reserve(std::size_t n);
  char* at(const Extent& e) { return chunks_[e.chunk].get() + e.offset; }
  // Place `data` in `e`, reserving a new extent when it does not fit.
  void store(Extent& e, std::span<const char> data);
  // `e`'s contents: a view (kMemory) or read into buf[pos, pos + length)
  // (kFile; `buf` must be that long).
  std::span<const char> load(const Extent& e, std::vector<char>& buf,
                             std::size_t pos);
  bool holds(const Shared& s, std::span<const char> blob);
  void release(std::uint32_t sid);

  SlabConfig cfg_;
  std::unordered_map<std::uint32_t, Entry> index_;
  std::vector<Shared> shared_;                   // by shared id
  std::vector<std::uint32_t> free_shared_;       // ids with refs == 0
  std::array<std::uint32_t, kRecent> recent_;   // share()'s last, newest first
  std::vector<char> compare_buf_;                // kFile: holds() reads here
  std::vector<std::unique_ptr<char[]>> chunks_;  // kMemory
  std::uint64_t chunk_used_ = 0;   // bytes reserved in chunks_.back()
  std::uint64_t chunk_size_ = 0;   // size of chunks_.back()
  std::fstream file_;              // kFile
  std::uint64_t bytes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t shared_bytes_ = 0;
  std::uint64_t shared_hits_ = 0;
};

}  // namespace hfl::pop

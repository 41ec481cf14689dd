// Thread-safe metrics registry: counters, gauges and fixed-bucket histograms,
// addressable by name + labels (e.g. "pool.busy_ns" / "worker=3").
//
// Design goals, in order:
//   1. Zero perturbation of simulation results. Recording never touches the
//      simulation RNG streams or scheduling; every metric is derived from
//      values the simulation already computed (or from host wall-clock, which
//      the simulation never reads). Runs are bit-identical with telemetry on
//      or off.
//   2. A compiled-in-but-disabled fast path. Instrumentation stays in release
//      builds; when disabled (the default) every record call reduces to one
//      relaxed atomic load and a predictable branch — low single-digit
//      nanoseconds; benchmark/ reports the enabled cost as obs.overhead_pct.
//   3. Pointer stability. Handles returned by `counter()` / `gauge()` /
//      `histogram()` stay valid for the registry's lifetime; `reset()` zeroes
//      values but never invalidates handles, so hot call sites may cache
//      references in function-local statics.
//
// This library sits below hfl_common (ThreadPool itself is instrumented), so
// it depends on nothing but the standard library and does its own file I/O
// and number formatting for the CSV/JSONL exporters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hfl::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// Global telemetry switch, off by default. The single relaxed load below is
// the entire disabled-path cost of every instrumentation site.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Monotonically increasing event/volume count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written double (bit-packed into an atomic word).
class Gauge {
 public:
  void set(double v);
  // Monotone high-water mark: raises the gauge to v if v exceeds the current
  // value (CAS loop, safe under concurrent set_max). A plain `set` can still
  // lower it afterwards — use one style per gauge.
  void set_max(double v);
  double value() const;
  void reset();

 private:
  std::atomic<std::uint64_t> bits_{0};
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
// implicit overflow bucket counts the rest. Bounds are set at creation and
// immutable afterwards, so concurrent `observe` needs no bucket locking.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double, CAS-accumulated
};

class Registry {
 public:
  // The process-wide registry used by all built-in instrumentation.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create. The returned reference is stable for the registry's
  // lifetime. Creating the same (name, labels) with mismatched histogram
  // bounds throws hfl-style std::runtime_error.
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& labels,
                       const std::vector<double>& bounds);

  // Zero every metric's value; handles stay valid.
  void reset();

  // Long-format CSV: kind,name,labels,field,value — counters emit one
  // "count" row, gauges one "value" row, histograms one row per bucket
  // ("le_<bound>" / "le_inf") plus "sum" and "count". Doubles are written
  // with round-trip (max_digits10) precision. Throws std::runtime_error if
  // the file cannot be created.
  void write_csv(const std::string& path) const;

  // One JSON object per metric per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
};

}  // namespace hfl::obs

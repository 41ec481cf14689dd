// Shared pieces of the golden-digest tests: a 64-bit FNV-1a hasher over the
// raw bytes of a run's reported outcome, the row printer a failing check
// uses to report what it measured, and the fault-model zoo the trace
// digests cover.
//
// A golden digest pins a code path to its recorded output instead of to a
// second implementation: a refactor that moves a single bit of a curve,
// parameter vector or fault trace changes the hash.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/fault_plan.h"

namespace hfl::golden {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// `{"name", {0x...ULL, ...}},` — the table row a golden map holds, printed
// by a failing check so an intended change can paste the measured values.
template <std::size_t N>
std::string format_row(const std::string& name,
                       const std::array<std::uint64_t, N>& digests) {
  std::string row = "{\"" + name + "\", {";
  for (const std::uint64_t d : digests) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL, ",
                  static_cast<unsigned long long>(d));
    row += buf;
  }
  return row + "}},";
}

// Six fault configurations: each model alone, then everything at once.
inline sim::FaultConfig fault_zoo(int which) {
  sim::FaultConfig fc;
  fc.seed = 100 + which;
  switch (which) {
    case 0:
      fc.dropout.prob = 0.3;
      break;
    case 1:
      fc.churn.p_fail = 0.2;
      fc.churn.p_recover = 0.6;
      fc.churn.p_start_down = 0.25;
      break;
    case 2:
      fc.straggler.fraction = 0.4;
      fc.straggler.slowdown = 2.0;
      fc.straggler.jitter = 0.5;
      fc.straggler.deadline_slowdown = 2.5;
      break;
    case 3:
      fc.link.loss_prob = 0.35;
      fc.link.max_retries = 2;
      break;
    case 4:
      fc.edge_outage.prob = 0.3;
      break;
    default:  // everything at once
      fc.dropout.prob = 0.15;
      fc.churn.p_fail = 0.1;
      fc.churn.p_recover = 0.7;
      fc.churn.p_start_down = 0.1;
      fc.straggler.fraction = 0.3;
      fc.straggler.slowdown = 1.8;
      fc.straggler.jitter = 0.4;
      fc.straggler.deadline_slowdown = 2.2;
      fc.link.loss_prob = 0.2;
      fc.link.max_retries = 3;
      fc.edge_outage.prob = 0.2;
      break;
  }
  return fc;
}

}  // namespace hfl::golden

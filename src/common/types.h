// Fundamental scalar and vector aliases shared across the library.
//
// The whole federated-learning stack (momentum updates, aggregations, bound
// computations) operates on flattened parameter vectors; `Vec` is that common
// currency. Double precision is used throughout: the simulated workloads are
// small enough that memory is not a concern, and the convergence-bound
// verification in src/theory benefits from the extra precision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hfl {

using Scalar = double;
using Vec = std::vector<Scalar>;

// Shared "never reached" sentinels for search-style queries (first iteration
// / first modeled second at which a curve hits a target). Index-valued
// queries return kNeverIndex (mirrors std::string::npos — 0 is a legitimate
// answer, the initial model may already qualify); time-valued queries return
// kNeverTime (modeled clocks start at 0 and only move forward, so any
// negative value is unreachable). fl::RunResult::npos and
// net::TimeSimulator::kNeverReached are aliases of these two constants, so
// every caller compares against the same bits.
inline constexpr std::size_t kNeverIndex = static_cast<std::size_t>(-1);
inline constexpr Scalar kNeverTime = -1.0;

// Heap bytes a vector holds (its capacity): the unit of the per-owner
// live-byte gauges (fl.participation.bytes, pop.descriptors.bytes).
template <class T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace hfl

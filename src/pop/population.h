// Compact worker descriptors for a worker population.
//
// A full `fl::WorkerState` — model instance, momentum vectors, batch
// streams — per worker caps a single box at a few thousand workers. A
// `Population` keeps only what cohort selection and weight renormalization
// actually need: one flat array indexed by the 32-bit worker id, the
// per-worker sample count D_{i,ℓ} (the paper's data mass), plus the
// per-edge/total sample sums the aggregation weights are derived from.
// The edge assignment is read off the `fl::Topology`, which already holds
// it. Everything heavier lives in `CohortStore`, which
// materializes full states only for the workers of the current cohort.
//
// The weights are the paper's D-ratios: integer sample counts cast to
// Scalar, then divided.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/data/partitioner.h"
#include "src/fl/topology.h"

namespace hfl::pop {

class Population {
 public:
  // Descriptors for `topo`'s workers with per-worker sample counts read off
  // `partition` (partition[i].size() = worker i's D_{i,ℓ}). `topo` must
  // outlive the descriptors.
  Population(const fl::Topology& topo, const data::Partition& partition);

  std::size_t num_workers() const { return num_samples_.size(); }
  std::size_t num_edges() const { return edge_samples_.size(); }

  std::size_t edge_of(std::size_t worker) const {
    return topo_->edge_of_worker(worker);
  }
  std::size_t num_samples(std::size_t worker) const {
    return num_samples_[worker];
  }

  // D_{i,ℓ}/D_ℓ and D_{i,ℓ}/D.
  Scalar weight_in_edge(std::size_t worker) const {
    return static_cast<Scalar>(num_samples_[worker]) /
           static_cast<Scalar>(edge_samples_[edge_of(worker)]);
  }
  Scalar weight_global(std::size_t worker) const {
    return static_cast<Scalar>(num_samples_[worker]) /
           static_cast<Scalar>(total_samples_);
  }

  std::uint64_t total_samples() const { return total_samples_; }
  std::uint64_t edge_samples(std::size_t edge) const {
    return edge_samples_[edge];
  }

  // Worker i's data mass D_i as a Scalar: the sampler weight, and the base
  // weight `fl::Participation` renormalizes (the engine reads the same
  // count off its partition).
  Scalar base_weight(std::size_t worker) const {
    return static_cast<Scalar>(num_samples_[worker]);
  }
  // Every D_i as one vector (the alias table's construction input).
  std::vector<Scalar> base_weights() const;

  // Heap bytes the descriptors hold (part of pop.descriptors.bytes).
  std::size_t bytes() const {
    return heap_bytes(num_samples_) + heap_bytes(edge_samples_);
  }

 private:
  const fl::Topology* topo_;                 // edge assignment
  std::vector<std::uint32_t> num_samples_;   // D_{i,ℓ} per worker
  std::vector<std::uint64_t> edge_samples_;  // D_ℓ per edge
  std::uint64_t total_samples_ = 0;          // D
};

}  // namespace hfl::pop

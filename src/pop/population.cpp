#include "src/pop/population.h"

#include "src/common/errors.h"

namespace hfl::pop {

Population::Population(const fl::Topology& topo,
                       const data::Partition& partition)
    : topo_(&topo) {
  const std::size_t n = topo.num_workers();
  HFL_CHECK(partition.size() == n,
            "partition size must equal the topology's worker count");
  num_samples_.resize(n);
  edge_samples_.assign(topo.num_edges(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t samples = partition[i].size();
    HFL_CHECK(samples > 0, "every worker needs at least one sample");
    HFL_CHECK(samples < 0xFFFFFFFFull, "per-worker sample counts are 32-bit");
    num_samples_[i] = static_cast<std::uint32_t>(samples);
    edge_samples_[topo.edge_of_worker(i)] += samples;
    total_samples_ += samples;
  }
}

std::vector<Scalar> Population::base_weights() const {
  std::vector<Scalar> base(num_samples_.size());
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = base_weight(i);
  return base;
}

}  // namespace hfl::pop

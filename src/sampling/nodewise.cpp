#include "sampling/nodewise.hpp"

#include "util/error.hpp"

namespace trkx {

NodewiseSampler::NodewiseSampler(const Graph& parent,
                                 const NodewiseConfig& config)
    : parent_(&parent),
      sym_adj_(parent.symmetric_adjacency()),
      config_(config) {
  TRKX_CHECK(!config.fanouts.empty());
  for (std::size_t f : config.fanouts) TRKX_CHECK(f >= 1);
}

std::vector<std::uint32_t> NodewiseSampler::walk_vertex_set(
    std::uint32_t root, Rng& rng) const {
  return frontier_walk(sym_adj_, root, config_.fanouts, rng);
}

ShadowSample NodewiseSampler::sample(const std::vector<std::uint32_t>& batch,
                                     Rng& rng) const {
  std::vector<std::vector<std::uint32_t>> sets;
  sets.reserve(batch.size());
  for (std::uint32_t b : batch) sets.push_back(walk_vertex_set(b, rng));
  return assemble_shadow_sample(*parent_, batch, sets);
}

}  // namespace trkx

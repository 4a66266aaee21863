#include "sampling/shadow.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace trkx {

ShadowSampler::ShadowSampler(const Graph& parent, const ShadowConfig& config)
    : parent_(&parent),
      sym_adj_(parent.symmetric_adjacency()),
      config_(config),
      fanouts_(config.depth, config.fanout) {
  TRKX_CHECK(config.depth >= 1);
  TRKX_CHECK(config.fanout >= 1);
}

std::vector<std::uint32_t> ShadowSampler::walk_vertex_set(std::uint32_t root,
                                                          Rng& rng) const {
  return frontier_walk(sym_adj_, root, fanouts_, rng);
}

ShadowSample ShadowSampler::sample(const std::vector<std::uint32_t>& batch,
                                   Rng& rng) const {
  std::vector<std::vector<std::uint32_t>> sets;
  sets.reserve(batch.size());
  {
    TRKX_TRACE_SPAN("shadow.walk", "sample");
    for (std::uint32_t b : batch) sets.push_back(walk_vertex_set(b, rng));
  }
  metrics().counter("sample.walks").add(batch.size());
  TRKX_TRACE_SPAN("shadow.assemble", "sample");
  return assemble_shadow_sample(*parent_, batch, sets);
}

std::vector<std::uint32_t> frontier_walk(const CsrMatrix& adj,
                                         std::uint32_t root,
                                         std::span<const std::size_t> fanouts,
                                         Rng& rng) {
  TRKX_CHECK(root < adj.rows());
  std::vector<std::uint32_t> visited{root};
  std::vector<std::uint32_t> frontier{root};
  std::vector<std::uint32_t> next;
  for (std::size_t fanout : fanouts) {
    next.clear();
    for (std::uint32_t v : frontier) {
      const std::uint32_t* cols = adj.col_idx().data() + adj.row_ptr()[v];
      const std::uint64_t deg = adj.row_ptr()[v + 1] - adj.row_ptr()[v];
      if (deg <= fanout) {
        next.insert(next.end(), cols, cols + deg);
      } else {
        for (std::uint32_t off : rng.sample_without_replacement(
                 static_cast<std::uint32_t>(deg),
                 static_cast<std::uint32_t>(fanout)))
          next.push_back(cols[off]);
      }
    }
    visited.insert(visited.end(), next.begin(), next.end());
    frontier.swap(next);
  }
  std::sort(visited.begin(), visited.end());
  visited.erase(std::unique(visited.begin(), visited.end()), visited.end());
  return visited;
}

ShadowSample assemble_shadow_sample(
    const Graph& parent, const std::vector<std::uint32_t>& batch,
    std::span<const std::vector<std::uint32_t>> vertex_sets) {
  TRKX_CHECK(batch.size() == vertex_sets.size());
  ShadowSample out;
  out.roots.reserve(batch.size());
  std::uint32_t vert_off = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& verts = vertex_sets[i];
    // Root position within its (sorted) vertex set.
    const auto it = std::lower_bound(verts.begin(), verts.end(), batch[i]);
    TRKX_CHECK_MSG(it != verts.end() && *it == batch[i],
                   "vertex set must contain its root");
    out.roots.push_back(vert_off +
                        static_cast<std::uint32_t>(it - verts.begin()));
    out.component_of.insert(out.component_of.end(), verts.size(),
                            static_cast<std::uint32_t>(i));
    vert_off += static_cast<std::uint32_t>(verts.size());
  }
  out.sub = induced_union(parent, vertex_sets);
  return out;
}

std::vector<std::vector<std::uint32_t>> make_minibatches(
    std::size_t n, std::size_t batch_size, Rng& rng) {
  TRKX_CHECK(batch_size > 0);
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(perm);
  std::vector<std::vector<std::uint32_t>> batches;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t len = std::min(batch_size, n - start);
    batches.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(start),
                         perm.begin() + static_cast<std::ptrdiff_t>(start + len));
  }
  return batches;
}

}  // namespace trkx

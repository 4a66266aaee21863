#pragma once

// Independent references for ShaDow sample extraction and drawing, shared
// by graph_test, sampling_test and samplers_test:
//   - brute_force_union: each part's induced subgraph by a full in-order
//     scan of the parent's edge list;
//   - literal_sample_bulk: MatrixShadowSampler::sample_bulk in the paper's
//     literal matrix formulation (Fig 2), built from the public sparse
//     kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sampling/shadow.hpp"
#include "sparse/sample.hpp"
#include "sparse/spgemm.hpp"

namespace trkx::oracle {

/// The disjoint union of the subgraphs each part induces in `parent`: for
/// every part, scan the parent's edges in order and keep an edge when both
/// endpoints are in the part, relabelled by their positions in it (offset
/// by the vertices of the parts before).
inline InducedSubgraph brute_force_union(
    const Graph& parent, const std::vector<std::vector<std::uint32_t>>& parts) {
  InducedSubgraph out;
  std::vector<Edge> edges;
  for (const auto& part : parts) {
    const auto base = static_cast<std::uint32_t>(out.vertex_map.size());
    const auto position = [&part](std::uint32_t v) {
      return static_cast<std::size_t>(std::find(part.begin(), part.end(), v) -
                                      part.begin());
    };
    for (std::uint32_t e = 0; e < parent.num_edges(); ++e) {
      const std::size_t src = position(parent.edge(e).src);
      const std::size_t dst = position(parent.edge(e).dst);
      if (src == part.size() || dst == part.size()) continue;
      edges.push_back({base + static_cast<std::uint32_t>(src),
                       base + static_cast<std::uint32_t>(dst)});
      out.edge_map.push_back(e);
    }
    out.vertex_map.insert(out.vertex_map.end(), part.begin(), part.end());
  }
  out.graph = Graph(out.vertex_map.size(), std::move(edges));
  return out;
}

inline void expect_same_subgraph(const InducedSubgraph& a,
                                 const InducedSubgraph& b) {
  EXPECT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  EXPECT_EQ(a.vertex_map, b.vertex_map);
  EXPECT_EQ(a.edge_map, b.edge_map);
}

inline void expect_same_sample(const ShadowSample& a, const ShadowSample& b) {
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.component_of, b.component_of);
  expect_same_subgraph(a.sub, b.sub);
}

/// MatrixShadowSampler::sample_bulk as the paper writes it. Every level
/// builds the selection matrix Q, forms P = Q·A with the general SpGEMM,
/// normalises P and draws from it with the grouped sample_rows; every
/// component is A(S, S) = S·A·Sᵀ of the directed adjacency through
/// selection SpGEMMs. It splits one stream per root off `rng` as the
/// sampler does, so the two must return the same bytes.
inline std::vector<ShadowSample> literal_sample_bulk(
    const Graph& g, const ShadowConfig& cfg,
    const std::vector<std::vector<std::uint32_t>>& batches, Rng& rng) {
  const CsrMatrix sym = g.symmetric_adjacency();
  std::vector<std::uint32_t> frontier;
  for (const auto& b : batches)
    frontier.insert(frontier.end(), b.begin(), b.end());
  const std::size_t num_roots = frontier.size();
  std::vector<std::vector<std::uint32_t>> visited(num_roots);
  std::vector<std::uint32_t> row_root(num_roots);
  std::vector<Rng> root_rngs;
  for (std::size_t r = 0; r < num_roots; ++r) {
    visited[r].push_back(frontier[r]);
    row_root[r] = static_cast<std::uint32_t>(r);
    root_rngs.push_back(rng.split());
  }
  for (std::size_t level = 0; level < cfg.depth && !frontier.empty(); ++level) {
    CsrMatrix p = spgemm(CsrMatrix::selection(g.num_vertices(), frontier), sym);
    p.normalize_rows();
    const CsrMatrix drawn = sample_rows(p, cfg.fanout, row_root, root_rngs);
    std::vector<std::uint32_t> next, next_root;
    for (std::size_t row = 0; row < drawn.rows(); ++row) {
      for (std::uint64_t k = drawn.row_ptr()[row]; k < drawn.row_ptr()[row + 1];
           ++k) {
        visited[row_root[row]].push_back(drawn.col_idx()[k]);
        next.push_back(drawn.col_idx()[k]);
        next_root.push_back(row_root[row]);
      }
    }
    frontier = std::move(next);
    row_root = std::move(next_root);
  }

  // A(S, S) has one entry per (src, dst) pair, valued by the number of
  // parallel edges; the parent's edge list gives those edges' indices.
  const CsrMatrix dir = g.adjacency();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::uint32_t>>
      edges_between;
  for (std::uint32_t e = 0; e < g.num_edges(); ++e)
    edges_between[{g.edge(e).src, g.edge(e).dst}].push_back(e);

  std::vector<ShadowSample> out;
  std::size_t r = 0;
  for (const auto& batch : batches) {
    ShadowSample s;
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < batch.size(); ++i, ++r) {
      std::vector<std::uint32_t>& verts = visited[r];
      std::sort(verts.begin(), verts.end());
      verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
      const auto base = static_cast<std::uint32_t>(s.sub.vertex_map.size());
      s.roots.push_back(base + static_cast<std::uint32_t>(
                                   std::lower_bound(verts.begin(), verts.end(),
                                                    batch[i]) -
                                   verts.begin()));
      s.component_of.insert(s.component_of.end(), verts.size(),
                            static_cast<std::uint32_t>(i));
      s.sub.vertex_map.insert(s.sub.vertex_map.end(), verts.begin(),
                              verts.end());
      std::vector<std::pair<std::uint32_t, Edge>> found;  // (parent edge, edge)
      for (const Triplet& t : induced_via_spgemm(dir, verts).to_triplets()) {
        const auto& parallel = edges_between[{verts[t.row], verts[t.col]}];
        EXPECT_EQ(t.val, static_cast<float>(parallel.size()));
        for (std::uint32_t e : parallel)
          found.push_back({e, Edge{base + t.row, base + t.col}});
      }
      std::sort(found.begin(), found.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [e, edge] : found) {
        s.sub.edge_map.push_back(e);
        edges.push_back(edge);
      }
    }
    s.sub.graph = Graph(s.sub.vertex_map.size(), std::move(edges));
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace trkx::oracle

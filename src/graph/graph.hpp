#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace trkx {

/// Directed edge between vertex indices.
struct Edge {
  std::uint32_t src;
  std::uint32_t dst;
  bool operator==(const Edge&) const = default;
};

/// A static directed graph with a fixed edge order.
///
/// Event graphs in the Exa.TrkX pipeline are directed (inner-detector hit →
/// outer-detector hit) and carry per-edge data (features, truth labels,
/// GNN scores) in arrays parallel to edges(). The class therefore keeps
/// edges in their construction order and exposes index-based lookups so
/// subgraphs can map their edges back to the parent's edge attributes.
class Graph {
 public:
  Graph() = default;
  Graph(std::size_t num_vertices, std::vector<Edge> edges);

  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(std::size_t i) const { return edges_[i]; }

  /// Source/destination index arrays (A.rows / A.cols in Algorithm 1),
  /// ready for row_gather / segment_sum. Built at construction, so a tape
  /// may borrow them for as long as the graph lives.
  const std::vector<std::uint32_t>& src_indices() const { return src_; }
  const std::vector<std::uint32_t>& dst_indices() const { return dst_; }

  /// Directed adjacency with value 1 per edge (duplicates summed).
  CsrMatrix adjacency() const;
  /// Symmetrised 0/1 adjacency pattern of A + Aᵀ (used for sampling:
  /// random walks must traverse edges in both directions).
  CsrMatrix symmetric_adjacency() const;

  /// Edge index of (src, dst), or kNoEdge; the lowest-index edge wins for
  /// parallel edges. O(log out_degree(src)); thread-safe (index is built
  /// eagerly at construction).
  static constexpr std::uint32_t kNoEdge = 0xffffffffu;
  std::uint32_t find_edge(std::uint32_t src, std::uint32_t dst) const;

  /// One out-edge as seen from the CSR index.
  struct OutEdge {
    std::uint32_t dst;
    std::uint32_t edge;  ///< index into edges()
  };
  /// Out-edges of v sorted by (dst, edge index). Enables O(Σdeg) induced
  /// subgraph extraction instead of scanning the whole edge list.
  std::span<const OutEdge> out_edges(std::uint32_t v) const;

  /// Out-degree + in-degree per vertex.
  std::vector<std::uint32_t> total_degrees() const;
  double average_degree() const;

 private:
  void build_index();

  std::size_t num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> src_;  // edges_[i].src, as one array
  std::vector<std::uint32_t> dst_;
  // CSR out-edge index: out_row_ptr_[v] .. out_row_ptr_[v+1] slices
  // out_entries_, sorted by (dst, edge) within each row.
  std::vector<std::uint64_t> out_row_ptr_;
  std::vector<OutEdge> out_entries_;
};

/// An induced subgraph plus the maps back to its parent graph.
struct InducedSubgraph {
  Graph graph;  ///< vertices renumbered 0..k-1
  std::vector<std::uint32_t> vertex_map;  ///< sub vertex -> parent vertex
  std::vector<std::uint32_t> edge_map;    ///< sub edge -> parent edge index
};

/// Subgraph induced by `vertices` (parent indices, any order; must be
/// distinct). Keeps every parent edge whose endpoints are both selected,
/// preserving parent edge order; sub vertex i is vertices[i].
InducedSubgraph induced_subgraph(const Graph& parent,
                                 const std::vector<std::uint32_t>& vertices);

/// The disjoint union of the subgraphs each part induces in `parent`,
/// built in one pass: the parts' vertices are numbered consecutively, part
/// after part, and each part's edges follow the previous part's in parent
/// edge order. A part's vertices must be distinct; parts may overlap.
InducedSubgraph induced_union(
    const Graph& parent, std::span<const std::vector<std::uint32_t>> parts);

}  // namespace trkx

#include "graph/graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace trkx {

Graph::Graph(std::size_t num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  src_.reserve(edges_.size());
  dst_.reserve(edges_.size());
  for (const Edge& e : edges_) {
    TRKX_CHECK_MSG(e.src < num_vertices_ && e.dst < num_vertices_,
                   "edge (" << e.src << "," << e.dst
                            << ") out of range for n=" << num_vertices_);
    src_.push_back(e.src);
    dst_.push_back(e.dst);
  }
  build_index();
}

void Graph::build_index() {
  // Counting sort by src, then sort each row by (dst, edge index).
  out_row_ptr_.assign(num_vertices_ + 1, 0);
  for (const Edge& e : edges_) ++out_row_ptr_[e.src + 1];
  for (std::size_t v = 0; v < num_vertices_; ++v)
    out_row_ptr_[v + 1] += out_row_ptr_[v];
  out_entries_.resize(edges_.size());
  std::vector<std::uint64_t> cursor(out_row_ptr_.begin(),
                                    out_row_ptr_.end() - 1);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    out_entries_[cursor[edges_[i].src]++] =
        OutEdge{edges_[i].dst, static_cast<std::uint32_t>(i)};
  }
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    std::sort(out_entries_.begin() +
                  static_cast<std::ptrdiff_t>(out_row_ptr_[v]),
              out_entries_.begin() +
                  static_cast<std::ptrdiff_t>(out_row_ptr_[v + 1]),
              [](const OutEdge& a, const OutEdge& b) {
                return a.dst != b.dst ? a.dst < b.dst : a.edge < b.edge;
              });
  }
}

std::span<const Graph::OutEdge> Graph::out_edges(std::uint32_t v) const {
  TRKX_CHECK(v < num_vertices_);
  return {out_entries_.data() + out_row_ptr_[v],
          static_cast<std::size_t>(out_row_ptr_[v + 1] - out_row_ptr_[v])};
}

CsrMatrix Graph::adjacency() const {
  std::vector<Triplet> trips;
  trips.reserve(edges_.size());
  for (const Edge& e : edges_) trips.push_back({e.src, e.dst, 1.0f});
  return CsrMatrix::from_triplets(num_vertices_, num_vertices_,
                                  std::move(trips));
}

CsrMatrix Graph::symmetric_adjacency() const {
  std::vector<Triplet> trips;
  trips.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;  // self-loops add nothing to walks
    trips.push_back({e.src, e.dst, 1.0f});
    trips.push_back({e.dst, e.src, 1.0f});
  }
  CsrMatrix a = CsrMatrix::from_triplets(num_vertices_, num_vertices_,
                                         std::move(trips));
  // Collapse summed duplicates back to a 0/1 pattern.
  for (float& v : a.values()) v = 1.0f;
  return a;
}

std::uint32_t Graph::find_edge(std::uint32_t src, std::uint32_t dst) const {
  if (src >= num_vertices_ || dst >= num_vertices_) return kNoEdge;
  const auto row = out_edges(src);
  const auto it = std::lower_bound(
      row.begin(), row.end(), dst,
      [](const OutEdge& e, std::uint32_t d) { return e.dst < d; });
  if (it == row.end() || it->dst != dst) return kNoEdge;
  return it->edge;  // lowest edge index (rows sorted by (dst, edge))
}

std::vector<std::uint32_t> Graph::total_degrees() const {
  std::vector<std::uint32_t> deg(num_vertices_, 0);
  for (const Edge& e : edges_) {
    ++deg[e.src];
    ++deg[e.dst];
  }
  return deg;
}

double Graph::average_degree() const {
  if (num_vertices_ == 0) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) /
         static_cast<double>(num_vertices_);
}

InducedSubgraph induced_subgraph(const Graph& parent,
                                 const std::vector<std::uint32_t>& vertices) {
  return induced_union(parent, {&vertices, 1});
}

InducedSubgraph induced_union(
    const Graph& parent, std::span<const std::vector<std::uint32_t>> parts) {
  // One parent-sized remap serves every part: set for the part's vertices,
  // read through the CSR out-edge index, then reset. Extraction costs
  // O(Σ out_degree) per part, whatever the parent's edge count, and
  // allocates nothing per part.
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<std::uint32_t> remap(parent.num_vertices(), kUnset);
  std::size_t n = 0;
  for (const auto& part : parts) n += part.size();
  TRKX_CHECK(n < kUnset);
  InducedSubgraph out;
  out.vertex_map.reserve(n);
  std::vector<Edge> edges;
  std::vector<std::pair<std::uint32_t, Edge>> found;  // (parent edge, edge)
  std::uint32_t next_id = 0;
  for (const auto& part : parts) {
    for (std::uint32_t v : part) {
      TRKX_CHECK(v < parent.num_vertices());
      TRKX_CHECK_MSG(remap[v] == kUnset,
                     "duplicate vertex in induced subgraph selection");
      remap[v] = next_id++;
    }
    out.vertex_map.insert(out.vertex_map.end(), part.begin(), part.end());
    found.clear();
    for (std::uint32_t v : part) {
      for (const Graph::OutEdge& oe : parent.out_edges(v)) {
        if (remap[oe.dst] != kUnset)
          found.push_back({oe.edge, Edge{remap[v], remap[oe.dst]}});
      }
    }
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [pe, e] : found) {
      out.edge_map.push_back(pe);
      edges.push_back(e);
    }
    for (std::uint32_t v : part) remap[v] = kUnset;
  }
  out.graph = Graph(n, std::move(edges));
  return out;
}

}  // namespace trkx

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "shadow_oracle.hpp"
#include "tensor/ops.hpp"

namespace trkx {
namespace {

// ---------- Graph ----------

TEST(GraphTest, BasicAccessors) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edge(1).src, 1u);
  EXPECT_EQ(g.src_indices(), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(g.dst_indices(), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(GraphTest, OutOfRangeEdgeThrows) {
  EXPECT_THROW(Graph(2, {{0, 2}}), Error);
}

TEST(GraphTest, AdjacencyPattern) {
  Graph g(3, {{0, 1}, {2, 0}});
  Matrix a = g.adjacency().to_dense();
  EXPECT_EQ(a(0, 1), 1.0f);
  EXPECT_EQ(a(2, 0), 1.0f);
  EXPECT_EQ(a(1, 0), 0.0f);
}

TEST(GraphTest, SymmetricAdjacencyIsSymmetricAndBinary) {
  Rng rng(1);
  Graph g = erdos_renyi(15, 0.2, rng);
  CsrMatrix s = g.symmetric_adjacency();
  Matrix d = s.to_dense();
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(d(i, i), 0.0f);  // no self loops
    for (std::size_t j = 0; j < 15; ++j) {
      EXPECT_EQ(d(i, j), d(j, i));
      EXPECT_TRUE(d(i, j) == 0.0f || d(i, j) == 1.0f);
    }
  }
}

TEST(GraphTest, FindEdge) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.find_edge(0, 1), 0u);
  EXPECT_EQ(g.find_edge(1, 2), 1u);
  EXPECT_EQ(g.find_edge(1, 0), Graph::kNoEdge);
  EXPECT_EQ(g.find_edge(2, 2), Graph::kNoEdge);
}

TEST(GraphTest, Degrees) {
  Graph g(3, {{0, 1}, {0, 2}, {1, 2}});
  EXPECT_EQ(g.total_degrees(), (std::vector<std::uint32_t>{2, 2, 2}));
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(GraphTest, OutEdgesIndexSortedAndComplete) {
  Graph g(4, {{2, 1}, {0, 3}, {0, 1}, {2, 3}, {0, 2}});
  auto row0 = g.out_edges(0);
  ASSERT_EQ(row0.size(), 3u);
  // Sorted by destination.
  EXPECT_EQ(row0[0].dst, 1u);
  EXPECT_EQ(row0[1].dst, 2u);
  EXPECT_EQ(row0[2].dst, 3u);
  // Edge ids point back into edges().
  EXPECT_EQ(row0[0].edge, 2u);
  EXPECT_EQ(row0[1].edge, 4u);
  EXPECT_EQ(row0[2].edge, 1u);
  EXPECT_EQ(g.out_edges(1).size(), 0u);
  EXPECT_EQ(g.out_edges(3).size(), 0u);
  EXPECT_THROW(g.out_edges(4), Error);
}

TEST(GraphTest, FindEdgeParallelEdgesLowestWins) {
  Graph g(3, {{0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.find_edge(0, 1), 0u);  // lowest index of the parallel pair
  EXPECT_EQ(g.find_edge(9, 0), Graph::kNoEdge);  // out-of-range is safe
}

// ---------- induced subgraph ----------

TEST(InducedSubgraphTest, KeepsOnlyInternalEdges) {
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  auto sub = induced_subgraph(g, {0, 1, 4});
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  ASSERT_EQ(sub.graph.num_edges(), 2u);  // (0,1) and (0,4)
  EXPECT_EQ(sub.edge_map, (std::vector<std::uint32_t>{0, 4}));
  // Remapped endpoints.
  EXPECT_EQ(sub.graph.edge(0).src, 0u);
  EXPECT_EQ(sub.graph.edge(0).dst, 1u);
  EXPECT_EQ(sub.graph.edge(1).src, 0u);
  EXPECT_EQ(sub.graph.edge(1).dst, 2u);
  EXPECT_EQ(sub.vertex_map, (std::vector<std::uint32_t>{0, 1, 4}));
}

TEST(InducedSubgraphTest, DuplicateVertexThrows) {
  Graph g(3, {});
  EXPECT_THROW(induced_subgraph(g, {1, 1}), Error);
}

TEST(InducedSubgraphTest, PreservesParentEdgeOrder) {
  Rng rng(2);
  Graph g = erdos_renyi(12, 0.3, rng);
  auto sub = induced_subgraph(g, {2, 3, 5, 7, 11});
  EXPECT_TRUE(std::is_sorted(sub.edge_map.begin(), sub.edge_map.end()));
  for (std::size_t e = 0; e < sub.graph.num_edges(); ++e) {
    const Edge& se = sub.graph.edge(e);
    const Edge& pe = g.edge(sub.edge_map[e]);
    EXPECT_EQ(sub.vertex_map[se.src], pe.src);
    EXPECT_EQ(sub.vertex_map[se.dst], pe.dst);
  }
}

TEST(InducedSubgraphTest, MatchesBruteForceScan) {
  // Parallel edges (0→1 and 4→5 twice), self-loops (2, 3), edges both ways
  // between 1 and 2, and isolated vertices 6 and 7; unsorted selections.
  const Graph g(8, {{0, 1}, {1, 2}, {0, 1}, {2, 2}, {3, 0}, {2, 1},
                    {4, 5}, {5, 4}, {3, 3}, {1, 0}, {4, 5}, {5, 3}});
  const std::vector<std::vector<std::uint32_t>> selections{
      {2, 0, 1}, {5, 3, 6, 0, 4}, {7}, {}, {6, 1, 2, 3, 4, 5, 7, 0}};
  for (const auto& sel : selections)
    oracle::expect_same_subgraph(induced_subgraph(g, sel),
                                 oracle::brute_force_union(g, {sel}));
}

// ---------- union-find ----------

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(0), uf.find(3));
}

TEST(UnionFindTest, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), Error);
}

// ---------- connected components ----------

TEST(ComponentsTest, PathIsOneComponent) {
  Graph g = path_graph(5);
  Components c = connected_components(g);
  EXPECT_EQ(c.count, 1u);
}

TEST(ComponentsTest, MaskSplitsComponents) {
  Graph g = path_graph(5);
  // Drop the middle edge (1→2).
  Components c = connected_components(g, {1, 0, 1, 1});
  EXPECT_EQ(c.count, 2u);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[2], c.label[4]);
  EXPECT_NE(c.label[1], c.label[2]);
}

TEST(ComponentsTest, IsolatedVerticesAreComponents) {
  Graph g(4, {{0, 1}});
  Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
}

TEST(ComponentsTest, GroupsPartitionVertices) {
  Rng rng(3);
  Graph g = erdos_renyi(30, 0.05, rng);
  Components c = connected_components(g);
  auto groups = c.groups();
  std::size_t total = 0;
  for (const auto& grp : groups) total += grp.size();
  EXPECT_EQ(total, 30u);
  EXPECT_EQ(groups.size(), c.count);
}

class CcRandomGraphs : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(CcRandomGraphs, UnionFindMatchesBfs) {
  auto [n, p] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + p * 100));
  Graph g = erdos_renyi(n, p, rng);
  Components a = connected_components(g);
  Components b = connected_components_bfs(g);
  ASSERT_EQ(a.count, b.count);
  // Labels may be permuted; check the partitions agree.
  std::map<std::uint32_t, std::uint32_t> relabel;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    auto it = relabel.find(a.label[v]);
    if (it == relabel.end())
      relabel[a.label[v]] = b.label[v];
    else
      EXPECT_EQ(it->second, b.label[v]);
  }
}

TEST_P(CcRandomGraphs, MaskedMatchesBfs) {
  auto [n, p] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 77 + p * 10));
  Graph g = erdos_renyi(n, p, rng);
  std::vector<char> mask(g.num_edges());
  for (auto& m : mask) m = rng.bernoulli(0.5) ? 1 : 0;
  EXPECT_EQ(connected_components(g, mask).count,
            connected_components_bfs(g, mask).count);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcRandomGraphs,
    ::testing::Values(std::make_tuple(10, 0.05), std::make_tuple(30, 0.1),
                      std::make_tuple(50, 0.02), std::make_tuple(100, 0.01),
                      std::make_tuple(100, 0.2)));

TEST(ComponentsTest, CliquesCountedExactly) {
  Graph g = disjoint_cliques(4, 5);
  EXPECT_EQ(connected_components(g).count, 4u);
}

TEST(ComponentsTest, MaskSizeMismatchThrows) {
  Graph g = path_graph(3);
  EXPECT_THROW(connected_components(g, {1}), Error);
}

// ---------- generators ----------

TEST(GeneratorsTest, PathCycleGridShapes) {
  EXPECT_EQ(path_graph(6).num_edges(), 5u);
  EXPECT_EQ(cycle_graph(6).num_edges(), 6u);
  Graph grid = grid_graph(3, 4);
  EXPECT_EQ(grid.num_vertices(), 12u);
  EXPECT_EQ(grid.num_edges(), 3u * 3u + 2u * 4u);  // right + down edges
}

TEST(GeneratorsTest, RandomRegularOutDegree) {
  Rng rng(4);
  Graph g = random_regular_out(40, 5, rng);
  EXPECT_EQ(g.num_edges(), 200u);
  std::vector<int> out_deg(40, 0);
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.src, e.dst);
    ++out_deg[e.src];
  }
  for (int d : out_deg) EXPECT_EQ(d, 5);
  // No duplicate out-edges.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Edge& e : g.edges())
    EXPECT_TRUE(seen.insert({e.src, e.dst}).second);
}

TEST(GeneratorsTest, ErdosRenyiDensity) {
  Rng rng(5);
  Graph g = erdos_renyi(100, 0.05, rng);
  const double expected = 100.0 * 99.0 * 0.05;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.25);
}

}  // namespace
}  // namespace trkx

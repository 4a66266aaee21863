// Tests for the node-wise and layer-wise samplers (the other two families
// of the paper's sampler taxonomy, §II-B).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "sampling/layerwise.hpp"
#include "sampling/matrix_shadow.hpp"
#include "sampling/nodewise.hpp"
#include "shadow_oracle.hpp"

namespace trkx {
namespace {

// ---------- node-wise ----------

TEST(NodewiseTest, RespectsPerLevelFanouts) {
  Rng rng(1);
  Graph g = erdos_renyi(80, 0.2, rng);
  NodewiseSampler sampler(g, {.fanouts = {3, 2}});
  for (std::uint32_t root = 0; root < 10; ++root) {
    auto set = sampler.walk_vertex_set(root, rng);
    // |set| ≤ 1 + 3 + 3·2.
    EXPECT_LE(set.size(), 10u);
    EXPECT_TRUE(std::binary_search(set.begin(), set.end(), root));
  }
}

TEST(NodewiseTest, SingleLevelIsNeighborSample) {
  Graph g = cycle_graph(10);
  NodewiseSampler sampler(g, {.fanouts = {5}});
  Rng rng(2);
  auto set = sampler.walk_vertex_set(0, rng);
  EXPECT_EQ(set, (std::vector<std::uint32_t>{0, 1, 9}));
}

TEST(NodewiseTest, SampleProducesOneComponentPerRoot) {
  Rng rng(3);
  Graph g = erdos_renyi(60, 0.15, rng);
  NodewiseSampler sampler(g, {.fanouts = {4, 3}});
  const std::vector<std::uint32_t> batch{5, 15, 25};
  ShadowSample s = sampler.sample(batch, rng);
  EXPECT_EQ(s.num_components(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(s.sub.vertex_map[s.roots[i]], batch[i]);
  for (const Edge& e : s.sub.graph.edges())
    EXPECT_EQ(s.component_of[e.src], s.component_of[e.dst]);
}

TEST(NodewiseTest, MatchesShadowWhenFanoutsEqual) {
  // Node-wise with equal fanouts at every level draws from the same
  // distribution as ShaDow with that fanout; with saturating fanouts both
  // are deterministic and identical.
  Rng rng(4);
  Graph g = erdos_renyi(40, 0.15, rng);
  NodewiseSampler nodewise(g, {.fanouts = {100, 100}});
  ShadowSampler shadow(g, {.depth = 2, .fanout = 100});
  Rng r1(5), r2(6);
  for (std::uint32_t root = 0; root < 10; ++root)
    EXPECT_EQ(nodewise.walk_vertex_set(root, r1),
              shadow.walk_vertex_set(root, r2));
}

TEST(NodewiseTest, RejectsEmptyFanouts) {
  Graph g = path_graph(4);
  EXPECT_THROW(NodewiseSampler(g, {.fanouts = {}}), Error);
  EXPECT_THROW(NodewiseSampler(g, {.fanouts = {2, 0}}), Error);
}

// ---------- layer-wise ----------

TEST(LayerwiseTest, BudgetBoundsVertexSet) {
  Rng rng(7);
  Graph g = erdos_renyi(200, 0.1, rng);
  LayerwiseSampler sampler(g, {.depth = 2, .budget = 16});
  std::vector<std::uint32_t> batch{1, 2, 3, 4, 5, 6, 7, 8};
  auto set = sampler.sample_vertex_set(batch, rng);
  // At most batch + depth × budget vertices.
  EXPECT_LE(set.size(), batch.size() + 2 * 16);
  for (std::uint32_t b : batch)
    EXPECT_TRUE(std::binary_search(set.begin(), set.end(), b));
}

TEST(LayerwiseTest, LinearGrowthWithDepthUnlikeNodewise) {
  Rng rng(8);
  Graph g = erdos_renyi(400, 0.08, rng);
  const std::vector<std::uint32_t> batch{0, 1, 2, 3};
  LayerwiseSampler shallow(g, {.depth = 1, .budget = 32});
  LayerwiseSampler deep(g, {.depth = 4, .budget = 32});
  Rng r1(9), r2(10);
  const auto s1 = shallow.sample_vertex_set(batch, r1);
  const auto s4 = deep.sample_vertex_set(batch, r2);
  // Depth-4 set is at most 4 budgets larger — linear, not exponential.
  EXPECT_LE(s4.size(), batch.size() + 4 * 32);
  EXPECT_GE(s4.size(), s1.size());
}

TEST(LayerwiseTest, SampleIsSingleSharedComponentStructure) {
  Rng rng(11);
  Graph g = erdos_renyi(100, 0.12, rng);
  LayerwiseSampler sampler(g, {.depth = 2, .budget = 24});
  const std::vector<std::uint32_t> batch{10, 20, 30};
  ShadowSample s = sampler.sample(batch, rng);
  EXPECT_EQ(s.roots.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(s.sub.vertex_map[s.roots[i]], batch[i]);
  for (auto c : s.component_of) EXPECT_EQ(c, 0u);
  // Edge maps point at real parent edges.
  for (std::size_t e = 0; e < s.sub.graph.num_edges(); ++e) {
    const Edge& se = s.sub.graph.edge(e);
    const Edge& pe = g.edge(s.sub.edge_map[e]);
    EXPECT_EQ(s.sub.vertex_map[se.src], pe.src);
    EXPECT_EQ(s.sub.vertex_map[se.dst], pe.dst);
  }
}

TEST(LayerwiseTest, ImportanceFavoursHighConnectivity) {
  // Hub-and-spokes: the hub connects to every batch vertex, so it has the
  // highest frontier multiplicity and must (essentially) always be drawn.
  std::vector<Edge> edges;
  const std::uint32_t hub = 0;
  for (std::uint32_t i = 1; i <= 20; ++i) edges.push_back({hub, i});
  // Extra sparse ring so there are other candidates.
  for (std::uint32_t i = 1; i < 20; ++i) edges.push_back({i, i + 1});
  Graph g(21, edges);
  LayerwiseSampler sampler(g, {.depth = 1, .budget = 3});
  Rng rng(12);
  int hub_drawn = 0;
  int spoke_drawn = 0;  // vertex 6: weight-1 ring neighbour of batch vertex 5
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    const auto set = sampler.sample_vertex_set({5, 10, 15}, rng);
    if (std::binary_search(set.begin(), set.end(), hub)) ++hub_drawn;
    if (std::binary_search(set.begin(), set.end(), 6u)) ++spoke_drawn;
  }
  EXPECT_GT(hub_drawn, trials / 2);
  EXPECT_GT(hub_drawn, spoke_drawn * 3 / 2);
}

TEST(LayerwiseTest, SmallGraphKeepsEverything) {
  Graph g = path_graph(5);
  LayerwiseSampler sampler(g, {.depth = 3, .budget = 100});
  Rng rng(13);
  auto set = sampler.sample_vertex_set({2}, rng);
  EXPECT_EQ(set.size(), 5u);  // whole path reachable in 3 levels
}

TEST(LayerwiseTest, InvalidConfigThrows) {
  Graph g = path_graph(4);
  EXPECT_THROW(LayerwiseSampler(g, {.depth = 0, .budget = 4}), Error);
  EXPECT_THROW(LayerwiseSampler(g, {.depth = 1, .budget = 0}), Error);
}

// ---------- cross-family comparison (the taxonomy's point) ----------

TEST(SamplerFamiliesTest, ReceptiveFieldOrdering) {
  // On a dense graph with generous parameters:
  //   layer-wise (budget-bounded)  ≤  shadow/node-wise (fanout-bounded)
  Rng rng(14);
  Graph g = erdos_renyi(300, 0.15, rng);
  const std::vector<std::uint32_t> batch{1, 2, 3, 4, 5, 6, 7, 8};

  ShadowSampler shadow(g, {.depth = 3, .fanout = 6});
  LayerwiseSampler layerwise(g, {.depth = 3, .budget = 32});
  Rng r1(15), r2(16);
  std::size_t shadow_verts = shadow.sample(batch, r1).sub.graph.num_vertices();
  std::size_t layer_verts =
      layerwise.sample(batch, r2).sub.graph.num_vertices();
  EXPECT_LT(layer_verts, shadow_verts);
}

// ---------- invariants across graph families ----------

enum class GraphFamily { kPath, kCycle, kGrid, kCliques, kErdos };

Graph make_family(GraphFamily family, Rng& rng) {
  switch (family) {
    case GraphFamily::kPath: return path_graph(40);
    case GraphFamily::kCycle: return cycle_graph(40);
    case GraphFamily::kGrid: return grid_graph(6, 7);
    case GraphFamily::kCliques: return disjoint_cliques(8, 5);
    case GraphFamily::kErdos: return erdos_renyi(40, 0.12, rng);
  }
  TRKX_CHECK(false);
}

class SamplerInvariants : public ::testing::TestWithParam<GraphFamily> {};

TEST_P(SamplerInvariants, AllFamiliesProduceValidSamples) {
  Rng rng(99);
  Graph g = make_family(GetParam(), rng);
  const std::vector<std::uint32_t> batch{0, 5, 11, 20, 33};

  ShadowSampler shadow(g, {.depth = 2, .fanout = 3});
  NodewiseSampler nodewise(g, {.fanouts = {3, 2}});
  LayerwiseSampler layerwise(g, {.depth = 2, .budget = 12});

  auto validate = [&](const ShadowSample& s, bool per_root_components) {
    // Vertex maps point into the parent; roots resolve to batch vertices.
    for (std::uint32_t v : s.sub.vertex_map) EXPECT_LT(v, g.num_vertices());
    ASSERT_EQ(s.roots.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(s.sub.vertex_map[s.roots[i]], batch[i]);
    // Edge maps are consistent with the parent's endpoints.
    for (std::size_t e = 0; e < s.sub.graph.num_edges(); ++e) {
      const Edge& se = s.sub.graph.edge(e);
      const Edge& pe = g.edge(s.sub.edge_map[e]);
      EXPECT_EQ(s.sub.vertex_map[se.src], pe.src);
      EXPECT_EQ(s.sub.vertex_map[se.dst], pe.dst);
    }
    if (per_root_components) {
      for (const Edge& e : s.sub.graph.edges())
        EXPECT_EQ(s.component_of[e.src], s.component_of[e.dst]);
    }
  };

  Rng r1(1), r2(2), r3(3);
  validate(shadow.sample(batch, r1), true);
  validate(nodewise.sample(batch, r2), true);
  validate(layerwise.sample(batch, r3), false);
}

TEST_P(SamplerInvariants, MatrixShadowMatchesReferenceStructure) {
  Rng rng(100);
  Graph g = make_family(GetParam(), rng);
  ShadowConfig cfg{.depth = 2, .fanout = 100};  // saturating → deterministic
  ShadowSampler ref(g, cfg);
  MatrixShadowSampler mat(g, cfg);
  const std::vector<std::uint32_t> batch{1, 7, 19};
  Rng r1(4), r2(5);
  ShadowSample a = ref.sample(batch, r1);
  ShadowSample b = mat.sample(batch, r2);
  EXPECT_EQ(a.sub.vertex_map, b.sub.vertex_map);
  EXPECT_EQ(a.sub.edge_map, b.sub.edge_map);
}

INSTANTIATE_TEST_SUITE_P(Families, SamplerInvariants,
                         ::testing::Values(GraphFamily::kPath,
                                           GraphFamily::kCycle,
                                           GraphFamily::kGrid,
                                           GraphFamily::kCliques,
                                           GraphFamily::kErdos));

// ---------- isolated vertices (zero-degree rows) ----------

// A triangle on {0,1,2} plus three isolated vertices {3,4,5}. Real hit
// graphs contain noise hits with no edges; sampling one must degrade to a
// singleton component, never divide by a zero degree.
Graph triangle_with_isolates() {
  return Graph(6, {{0, 1}, {1, 2}, {0, 2}});
}

void expect_singleton_component(const ShadowSample& s, std::size_t component,
                                std::uint32_t parent_vertex) {
  const std::uint32_t root = s.roots[component];
  EXPECT_EQ(s.sub.vertex_map[root], parent_vertex);
  EXPECT_EQ(s.component_of[root], component);
  std::size_t members = 0;
  for (std::uint32_t c : s.component_of) members += (c == component);
  EXPECT_EQ(members, 1u);
  for (const Edge& e : s.sub.graph.edges()) {
    EXPECT_NE(e.src, root);
    EXPECT_NE(e.dst, root);
  }
}

TEST(IsolatedVertexTest, ShadowProducesSingletonComponent) {
  Graph g = triangle_with_isolates();
  ShadowSampler sampler(g, {.depth = 2, .fanout = 3});
  Rng rng(61);
  ShadowSample s = sampler.sample({3, 0, 4}, rng);
  ASSERT_EQ(s.num_components(), 3u);
  expect_singleton_component(s, 0, 3);
  expect_singleton_component(s, 2, 4);
  // The connected root still expands into the triangle.
  std::size_t triangle_members = 0;
  for (std::uint32_t c : s.component_of) triangle_members += (c == 1);
  EXPECT_EQ(triangle_members, 3u);
}

TEST(IsolatedVertexTest, NodewiseProducesSingletonComponent) {
  Graph g = triangle_with_isolates();
  NodewiseSampler sampler(g, {.fanouts = {3, 2}});
  Rng rng(62);
  ShadowSample s = sampler.sample({5, 1}, rng);
  ASSERT_EQ(s.num_components(), 2u);
  expect_singleton_component(s, 0, 5);
}

TEST(IsolatedVertexTest, MatrixShadowMatchesReferenceOnIsolates) {
  Graph g = triangle_with_isolates();
  const ShadowConfig cfg{.depth = 2, .fanout = 3};
  MatrixShadowSampler sampler(g, cfg);
  Rng rng(63), literal_rng(63);
  ShadowSample s = sampler.sample({4, 2, 3}, rng);
  ASSERT_EQ(s.num_components(), 3u);
  expect_singleton_component(s, 0, 4);
  expect_singleton_component(s, 2, 3);
  // The paper's literal SpGEMM formulation draws the same sample.
  oracle::expect_same_sample(
      s, oracle::literal_sample_bulk(g, cfg, {{4, 2, 3}}, literal_rng).front());
}

TEST(IsolatedVertexTest, LayerwiseKeepsIsolatedBatchVertices) {
  Graph g = triangle_with_isolates();
  LayerwiseSampler sampler(g, {.depth = 2, .budget = 4});
  Rng rng(64);
  // Batch of only isolated vertices: every level's frontier is empty.
  ShadowSample s = sampler.sample({3, 5}, rng);
  ASSERT_EQ(s.roots.size(), 2u);
  EXPECT_EQ(s.sub.vertex_map[s.roots[0]], 3u);
  EXPECT_EQ(s.sub.vertex_map[s.roots[1]], 5u);
  EXPECT_TRUE(s.sub.graph.edges().empty());
  // Mixed batch: isolated root survives alongside the triangle.
  Rng rng2(65);
  ShadowSample mixed = sampler.sample({4, 0}, rng2);
  ASSERT_EQ(mixed.roots.size(), 2u);
  EXPECT_EQ(mixed.sub.vertex_map[mixed.roots[0]], 4u);
}

TEST(IsolatedVertexTest, AllEdgelessGraphSamplesEveryFamily) {
  // Degenerate limit: no edges anywhere. Every sampler must still return
  // well-formed singleton components.
  Graph g(4, {});
  Rng rng(66);
  ShadowSample a = ShadowSampler(g, {.depth = 2, .fanout = 2}).sample({0, 3}, rng);
  EXPECT_EQ(a.num_components(), 2u);
  ShadowSample b = NodewiseSampler(g, {.fanouts = {2}}).sample({1}, rng);
  EXPECT_EQ(b.num_components(), 1u);
  ShadowSample c =
      MatrixShadowSampler(g, {.depth = 2, .fanout = 2}).sample({2}, rng);
  EXPECT_EQ(c.num_components(), 1u);
  ShadowSample d =
      LayerwiseSampler(g, {.depth = 2, .budget = 2}).sample({0, 1}, rng);
  EXPECT_EQ(d.roots.size(), 2u);
  EXPECT_TRUE(d.sub.graph.edges().empty());
}

}  // namespace
}  // namespace trkx

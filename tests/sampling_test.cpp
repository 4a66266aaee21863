#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "detector/generator.hpp"
#include "detector/presets.hpp"
#include "graph/generators.hpp"
#include "sampling/matrix_shadow.hpp"
#include "sampling/nodewise.hpp"
#include "sampling/shadow.hpp"
#include "shadow_oracle.hpp"
#include "util/codec.hpp"

namespace trkx {
namespace {

// ---------- make_minibatches ----------

TEST(MinibatchTest, PartitionCoversAllVerticesOnce) {
  Rng rng(1);
  auto batches = make_minibatches(103, 16, rng);
  EXPECT_EQ(batches.size(), 7u);
  std::set<std::uint32_t> seen;
  for (const auto& b : batches)
    for (auto v : b) EXPECT_TRUE(seen.insert(v).second);
  EXPECT_EQ(seen.size(), 103u);
  EXPECT_EQ(batches.back().size(), 103u % 16u);
}

TEST(MinibatchTest, ShuffledAcrossSeeds) {
  Rng a(2), b(3);
  auto ba = make_minibatches(50, 10, a);
  auto bb = make_minibatches(50, 10, b);
  EXPECT_NE(ba[0], bb[0]);
}

// ---------- reference ShaDow ----------

TEST(ShadowTest, WalkSetContainsRootAndRespectsBound) {
  Rng rng(4);
  Graph g = erdos_renyi(60, 0.1, rng);
  ShadowConfig cfg{.depth = 2, .fanout = 3};
  ShadowSampler sampler(g, cfg);
  for (std::uint32_t root = 0; root < 20; ++root) {
    auto set = sampler.walk_vertex_set(root, rng);
    EXPECT_TRUE(std::binary_search(set.begin(), set.end(), root));
    // |set| ≤ 1 + s + s² for d=2.
    EXPECT_LE(set.size(), 1u + 3u + 9u);
  }
}

TEST(ShadowTest, OneComponentPerBatchVertex) {
  Rng rng(5);
  Graph g = erdos_renyi(50, 0.15, rng);
  ShadowSampler sampler(g, {.depth = 2, .fanout = 3});
  const std::vector<std::uint32_t> batch{3, 17, 42, 8};
  ShadowSample s = sampler.sample(batch, rng);
  EXPECT_EQ(s.num_components(), 4u);
  EXPECT_EQ(s.component_of.size(), s.sub.graph.num_vertices());
  // Roots map back to the batch vertices.
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(s.sub.vertex_map[s.roots[i]], batch[i]);
  // No edge crosses components.
  for (const Edge& e : s.sub.graph.edges())
    EXPECT_EQ(s.component_of[e.src], s.component_of[e.dst]);
  // Every component's vertex count matches component_of.
  std::vector<std::size_t> counts(4, 0);
  for (auto c : s.component_of) ++counts[c];
  for (auto c : counts) EXPECT_GE(c, 1u);
}

TEST(ShadowTest, SubgraphEdgesAreInducedFromParent) {
  Rng rng(6);
  Graph g = erdos_renyi(40, 0.2, rng);
  ShadowSampler sampler(g, {.depth = 2, .fanout = 4});
  ShadowSample s = sampler.sample({0, 10, 20}, rng);
  ASSERT_EQ(s.sub.edge_map.size(), s.sub.graph.num_edges());
  for (std::size_t e = 0; e < s.sub.graph.num_edges(); ++e) {
    const Edge& se = s.sub.graph.edge(e);
    const Edge& pe = g.edge(s.sub.edge_map[e]);
    EXPECT_EQ(s.sub.vertex_map[se.src], pe.src);
    EXPECT_EQ(s.sub.vertex_map[se.dst], pe.dst);
  }
  // Induced property within one component: every parent edge between two
  // same-component sampled vertices must appear.
  for (std::size_t comp = 0; comp < s.num_components(); ++comp) {
    std::vector<std::uint32_t> verts;
    for (std::size_t v = 0; v < s.sub.graph.num_vertices(); ++v)
      if (s.component_of[v] == comp) verts.push_back(s.sub.vertex_map[v]);
    std::set<std::uint32_t> vset(verts.begin(), verts.end());
    std::size_t expected = 0;
    for (const Edge& pe : g.edges())
      if (vset.count(pe.src) && vset.count(pe.dst)) ++expected;
    std::size_t actual = 0;
    for (std::size_t v = 0; v < s.sub.graph.num_vertices(); ++v) {
      if (s.component_of[v] != comp) continue;
    }
    for (std::size_t e = 0; e < s.sub.graph.num_edges(); ++e)
      if (s.component_of[s.sub.graph.edge(e).src] == comp) ++actual;
    EXPECT_EQ(actual, expected);
  }
}

TEST(ShadowTest, FullFanoutIsDeterministicLHopNeighborhood) {
  // With fanout ≥ max degree, the walk visits the entire d-hop
  // neighbourhood deterministically.
  Graph g = path_graph(10);
  ShadowSampler sampler(g, {.depth = 2, .fanout = 10});
  Rng rng(7);
  auto set = sampler.walk_vertex_set(5, rng);
  EXPECT_EQ(set, (std::vector<std::uint32_t>{3, 4, 5, 6, 7}));
}

TEST(ShadowTest, DepthOneTouchesOnlyNeighbors) {
  Graph g = cycle_graph(8);
  ShadowSampler sampler(g, {.depth = 1, .fanout = 10});
  Rng rng(8);
  auto set = sampler.walk_vertex_set(0, rng);
  EXPECT_EQ(set, (std::vector<std::uint32_t>{0, 1, 7}));
}

TEST(ShadowTest, IsolatedVertexYieldsSingleton) {
  Graph g(5, {{1, 2}});
  ShadowSampler sampler(g, {.depth = 3, .fanout = 2});
  Rng rng(9);
  auto set = sampler.walk_vertex_set(0, rng);
  EXPECT_EQ(set, (std::vector<std::uint32_t>{0}));
  ShadowSample s = sampler.sample({0}, rng);
  EXPECT_EQ(s.sub.graph.num_vertices(), 1u);
  EXPECT_EQ(s.sub.graph.num_edges(), 0u);
}

// ---------- matrix-based ShaDow ----------

TEST(MatrixShadowTest, FullFanoutMatchesReferenceExactly) {
  // With saturating fanout both samplers are deterministic and must agree.
  Rng rng(10);
  Graph g = erdos_renyi(30, 0.12, rng);
  ShadowConfig cfg{.depth = 2, .fanout = 64};
  ShadowSampler ref(g, cfg);
  MatrixShadowSampler mat(g, cfg);
  const std::vector<std::uint32_t> batch{1, 5, 9, 22};
  Rng r1(11), r2(12);
  ShadowSample a = ref.sample(batch, r1);
  ShadowSample b = mat.sample(batch, r2);
  EXPECT_EQ(a.sub.vertex_map, b.sub.vertex_map);
  EXPECT_EQ(a.sub.edge_map, b.sub.edge_map);
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.component_of, b.component_of);
  ASSERT_EQ(a.sub.graph.num_edges(), b.sub.graph.num_edges());
  for (std::size_t e = 0; e < a.sub.graph.num_edges(); ++e)
    EXPECT_TRUE(a.sub.graph.edge(e) == b.sub.graph.edge(e));
}

TEST(MatrixShadowTest, FanoutBoundHolds) {
  Rng rng(13);
  Graph g = erdos_renyi(80, 0.15, rng);
  ShadowConfig cfg{.depth = 3, .fanout = 2};
  MatrixShadowSampler mat(g, cfg);
  ShadowSample s = mat.sample({4, 40}, rng);
  // Each component ≤ 1 + 2 + 4 + 8 vertices.
  std::vector<std::size_t> counts(2, 0);
  for (auto c : s.component_of) ++counts[c];
  for (auto c : counts) EXPECT_LE(c, 15u);
}

TEST(MatrixShadowTest, BulkEqualsConcatenatedStructure) {
  // Bulk sampling over k batches must produce the same *kind* of output
  // as k single calls: same component counts and root mapping, with all
  // vertex sets containing their roots.
  Rng rng(14);
  Graph g = erdos_renyi(60, 0.1, rng);
  ShadowConfig cfg{.depth = 2, .fanout = 3};
  MatrixShadowSampler mat(g, cfg);
  const std::vector<std::vector<std::uint32_t>> batches{
      {0, 1, 2}, {3, 4}, {5, 6, 7, 8}};
  Rng r(15);
  auto samples = mat.sample_bulk(batches, r);
  ASSERT_EQ(samples.size(), 3u);
  for (std::size_t k = 0; k < batches.size(); ++k) {
    EXPECT_EQ(samples[k].num_components(), batches[k].size());
    for (std::size_t i = 0; i < batches[k].size(); ++i)
      EXPECT_EQ(samples[k].sub.vertex_map[samples[k].roots[i]],
                batches[k][i]);
  }
}

TEST(MatrixShadowTest, StatsAreAccumulated) {
  Rng rng(17);
  Graph g = erdos_renyi(50, 0.2, rng);
  MatrixShadowSampler mat(g, {.depth = 3, .fanout = 2});
  BulkSampleStats stats;
  (void)mat.sample_bulk({{0, 1}, {2, 3}}, rng, &stats);
  EXPECT_EQ(stats.draw_levels, 3u);  // one per level
  EXPECT_GE(stats.frontier_rows, 4u);
  EXPECT_GT(stats.sampled_nnz, 0u);
}

TEST(MatrixShadowTest, SampledNeighborsAreRealNeighbors) {
  Rng rng(18);
  Graph g = erdos_renyi(50, 0.1, rng);
  CsrMatrix sym = g.symmetric_adjacency();
  MatrixShadowSampler mat(g, {.depth = 1, .fanout = 3});
  for (std::uint32_t root = 0; root < 10; ++root) {
    ShadowSample s = mat.sample({root}, rng);
    for (std::uint32_t v : s.sub.vertex_map) {
      if (v == root) continue;
      EXPECT_GT(sym.at(root, v), 0.0f)
          << "vertex " << v << " is not a neighbour of " << root;
    }
  }
}

TEST(MatrixShadowTest, MarginalDistributionMatchesReference) {
  // Statistical equivalence on a star graph: root has 8 neighbours,
  // fanout 4 → each neighbour appears with probability 1/2 under both
  // implementations.
  std::vector<Edge> edges;
  for (std::uint32_t i = 1; i <= 8; ++i) edges.push_back({0, i});
  Graph g(9, edges);
  ShadowConfig cfg{.depth = 1, .fanout = 4};
  ShadowSampler ref(g, cfg);
  MatrixShadowSampler mat(g, cfg);
  const int trials = 8000;
  std::vector<int> ref_counts(9, 0), mat_counts(9, 0);
  Rng r1(19), r2(20);
  for (int t = 0; t < trials; ++t) {
    for (auto v : ref.walk_vertex_set(0, r1)) ++ref_counts[v];
    ShadowSample s = mat.sample({0}, r2);
    for (auto v : s.sub.vertex_map) ++mat_counts[v];
  }
  for (std::uint32_t v = 1; v <= 8; ++v) {
    EXPECT_NEAR(ref_counts[v], trials / 2, trials * 0.05);
    EXPECT_NEAR(mat_counts[v], trials / 2, trials * 0.05);
  }
}

TEST(MatrixShadowTest, InvalidConfigThrows) {
  Graph g = path_graph(4);
  EXPECT_THROW(MatrixShadowSampler(g, {.depth = 0, .fanout = 2}), Error);
  EXPECT_THROW(ShadowSampler(g, {.depth = 2, .fanout = 0}), Error);
}

// ---------- pinned sample bytes ----------

/// CRC-32 over every field of `s`, continuing `crc`. Each field is
/// prefixed by its byte length so that field boundaries count.
std::uint32_t digest(const ShadowSample& s, std::uint32_t crc) {
  const auto put = [&crc](const auto& v) {
    const std::uint64_t bytes = v.size() * sizeof(v[0]);
    crc = crc32(&bytes, sizeof bytes, crc);
    crc = crc32(v.data(), bytes, crc);
  };
  put(s.roots);
  put(s.component_of);
  put(s.sub.vertex_map);
  put(s.sub.edge_map);
  put(s.sub.graph.edges());
  const std::uint64_t n = s.sub.graph.num_vertices();
  return crc32(&n, sizeof n, crc);
}

// 90 connected vertices with parallel edges and self-loops, then 10
// isolated ones.
Graph multigraph_with_isolates() {
  Rng rng(2602);
  std::vector<Edge> edges;
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(90));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(90));
    edges.push_back({u, v});
    if (i % 9 == 0) edges.push_back({u, v});
    if (i % 13 == 0) edges.push_back({u, u});
  }
  return Graph(100, std::move(edges));
}

// Resume, perfbench's exact-repeat values and the served replica all
// depend on the bytes every sampler draws for a given seed. These digests
// pin them across commits: a sampler change that moves one byte fails
// here, whatever else it keeps.
TEST(SampleBytesTest, DigestsArePinned) {
  Rng er_rng(2601);
  const std::vector<Graph> graphs{erdos_renyi(120, 0.06, er_rng),
                                  multigraph_with_isolates()};
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {1, 2}, {2, 4}, {3, 6}};
  std::uint32_t shadow = 0, matrix = 0, bulk = 0, nodewise = 0;
  for (const Graph& g : graphs) {
    for (const auto& [d, s] : shapes) {
      const ShadowConfig cfg{.depth = d, .fanout = s};
      std::vector<std::size_t> fanouts;
      for (std::size_t l = 0; l < d; ++l) fanouts.push_back(s - l);
      for (std::uint64_t seed : {1, 2, 3}) {
        Rng batch_rng(seed);
        auto batches = make_minibatches(g.num_vertices(), 16, batch_rng);
        batches.resize(3);
        Rng r1(seed), r2(seed), r3(seed), r4(seed);
        shadow = digest(ShadowSampler(g, cfg).sample(batches[0], r1), shadow);
        const MatrixShadowSampler mat(g, cfg);
        matrix = digest(mat.sample(batches[0], r2), matrix);
        for (const ShadowSample& x : mat.sample_bulk(batches, r3))
          bulk = digest(x, bulk);
        nodewise = digest(
            NodewiseSampler(g, {.fanouts = fanouts}).sample(batches[0], r4),
            nodewise);
      }
    }
  }
  EXPECT_EQ(shadow, 0xcf85acc8u) << std::hex << shadow;
  EXPECT_EQ(matrix, 0x0f472850u) << std::hex << matrix;
  EXPECT_EQ(bulk, 0x649df3e5u) << std::hex << bulk;
  EXPECT_EQ(nodewise, 0x2021294eu) << std::hex << nodewise;
}

// ---------- oracles ----------

TEST(MatrixShadowTest, GenericSpgemmPathMatchesFastPath) {
  // The paper's literal SpGEMM formulation and the fused sampler must draw
  // identical samples from identical streams, on a CTD event and on a
  // graph with parallel edges, self-loops and isolated vertices.
  Rng event_rng(7);
  const Event event = generate_event(ctd_spec(0.004).detector, event_rng);
  const Graph multigraph = multigraph_with_isolates();
  for (const Graph* g : {&event.graph, &multigraph}) {
    for (const auto& [d, s] : {std::pair<std::size_t, std::size_t>{1, 2},
                               {2, 4},
                               {3, 6}}) {
      const ShadowConfig cfg{.depth = d, .fanout = s};
      const MatrixShadowSampler sampler(*g, cfg);
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(testing::Message() << "n=" << g->num_vertices() << " d="
                                        << d << " s=" << s << " seed=" << seed);
        Rng batch_rng(seed);
        auto batches = make_minibatches(g->num_vertices(), 24, batch_rng);
        batches.resize(3);
        Rng r1(seed), r2(seed);
        const auto fused = sampler.sample_bulk(batches, r1);
        const auto literal = oracle::literal_sample_bulk(*g, cfg, batches, r2);
        ASSERT_EQ(fused.size(), literal.size());
        for (std::size_t k = 0; k < fused.size(); ++k)
          oracle::expect_same_sample(fused[k], literal[k]);
      }
    }
  }
}

TEST(ShadowTest, AssemblyMatchesBruteForceScan) {
  // Overlapping walk sets on a graph with parallel edges, self-loops and
  // isolated roots: every component is its vertex set's induced subgraph,
  // relabelled by position and laid out in batch order.
  const Graph g = multigraph_with_isolates();
  const ShadowSampler sampler(g, {.depth = 2, .fanout = 4});
  const std::vector<std::uint32_t> batch{3, 95, 3, 40, 17, 99, 40};
  Rng rng(5);
  std::vector<std::vector<std::uint32_t>> sets;
  for (std::uint32_t b : batch) sets.push_back(sampler.walk_vertex_set(b, rng));
  const ShadowSample s = assemble_shadow_sample(g, batch, sets);
  oracle::expect_same_subgraph(s.sub, oracle::brute_force_union(g, sets));
  std::uint32_t base = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(s.sub.vertex_map[s.roots[i]], batch[i]);
    for (std::size_t v = 0; v < sets[i].size(); ++v)
      EXPECT_EQ(s.component_of[base + v], i);
    base += static_cast<std::uint32_t>(sets[i].size());
  }
  EXPECT_EQ(s.component_of.size(), base);

  sets[1] = {95, 95};
  EXPECT_THROW(assemble_shadow_sample(g, batch, sets), Error);
}

}  // namespace
}  // namespace trkx

// Failure-injection / degenerate-input tests across the stack: every
// public entry point must either handle the edge case or fail loudly with
// trkx::Error — never crash or silently corrupt.

#include <gtest/gtest.h>

#include "pipeline/evaluation.hpp"
#include "pipeline/gnn_train.hpp"
#include "pipeline/graph_construction.hpp"
#include "pipeline/track_building.hpp"
#include "sampling/matrix_shadow.hpp"
#include "sampling/shadow.hpp"
#include "sparse/sample.hpp"
#include "sparse/spgemm.hpp"

namespace trkx {
namespace {

// ---------- empty / tiny structures ----------

TEST(Robustness, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.adjacency().nnz(), 0u);
  EXPECT_EQ(connected_components(g).count, 0u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Robustness, VerticesWithoutEdges) {
  Graph g(5, {});
  EXPECT_EQ(connected_components(g).count, 5u);
  auto sub = induced_subgraph(g, {1, 3});
  EXPECT_EQ(sub.graph.num_vertices(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(Robustness, EmptyCsrOperations) {
  CsrMatrix a(0, 0);
  CsrMatrix b(0, 0);
  EXPECT_EQ(spgemm(a, b).nnz(), 0u);
  CsrMatrix c(3, 4);
  EXPECT_EQ(c.transpose().rows(), 4u);
  c.normalize_rows();  // all-empty rows: no-op
  EXPECT_EQ(c.nnz(), 0u);
}

TEST(Robustness, SampleRowsOnEmptyRows) {
  CsrMatrix m = CsrMatrix::from_triplets(3, 5, {{1, 2, 1.0f}});
  Rng rng(1);
  CsrMatrix s = sample_rows(m, 2, rng);
  EXPECT_EQ(s.row_nnz(0), 0u);
  EXPECT_EQ(s.row_nnz(1), 1u);
  EXPECT_EQ(s.row_nnz(2), 0u);
}

TEST(Robustness, MatrixEdgeShapes) {
  Matrix a(0, 0);
  EXPECT_TRUE(a.all_finite());
  EXPECT_EQ(a.sum(), 0.0);
  Matrix row(1, 4, 2.0f);
  EXPECT_EQ(colwise_sum(row), row);
}

// ---------- samplers on adversarial graphs ----------

TEST(Robustness, ShadowOnSingletonGraph) {
  Graph g(1, {});
  ShadowSampler s(g, {.depth = 3, .fanout = 2});
  Rng rng(2);
  ShadowSample sample = s.sample({0}, rng);
  EXPECT_EQ(sample.sub.graph.num_vertices(), 1u);
  EXPECT_EQ(sample.sub.graph.num_edges(), 0u);
}

TEST(Robustness, MatrixShadowOnDisconnectedBatch) {
  Graph g(6, {{0, 1}});  // vertices 2..5 isolated
  MatrixShadowSampler s(g, {.depth = 2, .fanout = 2});
  Rng rng(3);
  auto samples = s.sample_bulk({{0, 2}, {4, 5}}, rng);
  ASSERT_EQ(samples.size(), 2u);
  // Component of vertex 2 is a singleton; component of 0 has the edge.
  EXPECT_EQ(samples[0].sub.graph.num_edges(), 1u);
  EXPECT_EQ(samples[1].sub.graph.num_edges(), 0u);
}

TEST(Robustness, ShadowWithSelfLoopGraph) {
  // Self loops are dropped from the walk graph but kept in the directed
  // adjacency; sampling must not crash or emit out-of-component edges.
  Graph g(3, {{0, 0}, {0, 1}, {1, 2}});
  ShadowSampler s(g, {.depth = 2, .fanout = 4});
  Rng rng(4);
  ShadowSample sample = s.sample({0}, rng);
  for (const Edge& e : sample.sub.graph.edges())
    EXPECT_EQ(sample.component_of[e.src], sample.component_of[e.dst]);
}

TEST(Robustness, SamplerRejectsOutOfRangeRoot) {
  Graph g = Graph(3, {{0, 1}});
  ShadowSampler s(g, {.depth = 1, .fanout = 1});
  Rng rng(5);
  EXPECT_THROW(s.sample({7}, rng), Error);
  MatrixShadowSampler m(g, {.depth = 1, .fanout = 1});
  EXPECT_THROW(m.sample({7}, rng), Error);
}

// ---------- training on degenerate events ----------

Event empty_event() {
  Event e;
  e.graph = Graph(0, {});
  e.node_features = Matrix(0, 6);
  e.edge_features = Matrix(0, 2);
  return e;
}

Event edgeless_event(std::size_t hits) {
  Event e;
  e.hits.resize(hits);
  e.graph = Graph(hits, {});
  e.node_features = Matrix(hits, 6, 0.1f);
  e.edge_features = Matrix(0, 2);
  e.edge_labels = {};
  return e;
}

IgnnConfig small_gnn() {
  IgnnConfig cfg;
  cfg.node_input_dim = 6;
  cfg.edge_input_dim = 2;
  cfg.hidden_dim = 8;
  cfg.num_layers = 1;
  cfg.mlp_hidden = 0;
  return cfg;
}

TEST(Robustness, TrainingSkipsEmptyAndEdgelessEvents) {
  DetectorConfig dc;
  dc.mean_particles = 10.0;
  Rng rng(6);
  std::vector<Event> train{empty_event(), edgeless_event(4),
                           generate_event(dc, rng)};
  std::vector<Event> val{generate_event(dc, rng)};
  GnnModel model(small_gnn(), 1);
  GnnTrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.shadow = {.depth = 1, .fanout = 2};
  EXPECT_NO_THROW(
      train_shadow(model, train, val, cfg, SamplerKind::kMatrixBulk));
  EXPECT_NO_THROW(train_full_graph(model, train, val, cfg));
}

TEST(Robustness, EvaluateOnEmptyValSet) {
  GnnModel model(small_gnn(), 2);
  const BinaryMetrics m = evaluate_edges(model, {});
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(roc_auc(score_events(model, {})), 0.5);
}

TEST(Robustness, AutoPosWeightDegenerateLabels) {
  Event e = edgeless_event(3);
  EXPECT_FLOAT_EQ(auto_pos_weight({e}), 1.0f);
}

TEST(Robustness, TrackBuildingOnEdgelessEvent) {
  Event e = edgeless_event(5);
  auto tracks = build_tracks(e, {}, TrackBuildConfig{});
  EXPECT_TRUE(tracks.empty());
  auto metrics = score_tracks(e, tracks, TrackBuildConfig{});
  EXPECT_EQ(metrics.candidates, 0u);
}

TEST(Robustness, FrnnOnEmptyAndSinglePoint) {
  FrnnConfig cfg;
  EXPECT_EQ(build_frnn_graph(Matrix(0, 3), cfg).num_vertices(), 0u);
  EXPECT_EQ(build_frnn_graph(Matrix(1, 3), cfg).num_edges(), 0u);
}

TEST(Robustness, ZeroLayerGnnIsEdgeMlp) {
  IgnnConfig cfg = small_gnn();
  cfg.num_layers = 0;
  ParameterStore store;
  Rng rng(7);
  InteractionGnn gnn(store, cfg, rng);
  Graph g = Graph(3, {{0, 1}, {1, 2}});
  Matrix x(3, 6, 0.2f);
  Matrix y(2, 2, 0.3f);
  const auto probs = gnn.predict(x, y, g);
  ASSERT_EQ(probs.size(), 2u);
  // With identical edge features the two logits must be identical —
  // no node/graph information can leak in without message passing.
  EXPECT_FLOAT_EQ(probs[0], probs[1]);
}

TEST(Robustness, BceRejectsEmptyLogits) {
  Tape tape;
  Var z = tape.leaf(Matrix(0, 1), true);
  EXPECT_THROW(tape.bce_with_logits(z, {}), Error);
}

TEST(Robustness, MinibatchesOfEmptyVertexSet) {
  Rng rng(8);
  auto batches = make_minibatches(0, 16, rng);
  EXPECT_TRUE(batches.empty());
}

}  // namespace
}  // namespace trkx

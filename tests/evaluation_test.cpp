#include <gtest/gtest.h>

#include <cmath>

#include "pipeline/evaluation.hpp"

namespace trkx {
namespace {

ScoredEdges make_edges(std::initializer_list<std::pair<float, bool>> pairs) {
  ScoredEdges e;
  for (auto& [s, l] : pairs) e.add(s, l);
  return e;
}

// ---------- ROC AUC ----------

TEST(RocAucTest, PerfectSeparationIsOne) {
  auto e = make_edges({{0.9f, true}, {0.8f, true}, {0.2f, false},
                       {0.1f, false}});
  EXPECT_DOUBLE_EQ(roc_auc(e), 1.0);
}

TEST(RocAucTest, InvertedSeparationIsZero) {
  auto e = make_edges({{0.1f, true}, {0.9f, false}});
  EXPECT_DOUBLE_EQ(roc_auc(e), 0.0);
}

TEST(RocAucTest, RandomScoresNearHalf) {
  Rng rng(1);
  ScoredEdges e;
  for (int i = 0; i < 20000; ++i)
    e.add(rng.uniform(0.0f, 1.0f), rng.bernoulli(0.3));
  EXPECT_NEAR(roc_auc(e), 0.5, 0.02);
}

TEST(RocAucTest, TiesAveraged) {
  // Two positives and two negatives all with the same score → AUC 0.5.
  auto e = make_edges({{0.5f, true}, {0.5f, true}, {0.5f, false},
                       {0.5f, false}});
  EXPECT_DOUBLE_EQ(roc_auc(e), 0.5);
}

TEST(RocAucTest, DegenerateClassesGiveHalf) {
  EXPECT_DOUBLE_EQ(roc_auc(make_edges({{0.5f, true}})), 0.5);
  EXPECT_DOUBLE_EQ(roc_auc(make_edges({{0.5f, false}})), 0.5);
  EXPECT_DOUBLE_EQ(roc_auc(ScoredEdges{}), 0.5);
}

TEST(RocAucTest, KnownHandValue) {
  // scores: pos {0.8, 0.4}, neg {0.6, 0.2}. Pairs won: (0.8>0.6),(0.8>0.2),
  // (0.4<0.6 lost),(0.4>0.2) → 3/4.
  auto e = make_edges({{0.8f, true}, {0.4f, true}, {0.6f, false},
                       {0.2f, false}});
  EXPECT_DOUBLE_EQ(roc_auc(e), 0.75);
}

// ---------- model-level evaluation ----------

TEST(EvaluationTest, ScoreEventsPoolsAllEdges) {
  DetectorConfig cfg;
  cfg.mean_particles = 20.0;
  Rng rng(5);
  std::vector<Event> events;
  for (int i = 0; i < 2; ++i) {
    Rng er = rng.split();
    events.push_back(generate_event(cfg, er));
  }
  IgnnConfig gnn;
  gnn.node_input_dim = cfg.node_feature_dim;
  gnn.edge_input_dim = cfg.edge_feature_dim;
  gnn.hidden_dim = 8;
  gnn.num_layers = 1;
  gnn.mlp_hidden = 0;
  GnnModel model(gnn, 6);
  const ScoredEdges pooled = score_events(model, events);
  EXPECT_EQ(pooled.size(), events[0].num_edges() + events[1].num_edges());
  for (float s : pooled.scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST(EvaluationTest, TrainedModelAucAboveChance) {
  DetectorConfig cfg;
  cfg.mean_particles = 30.0;
  Rng rng(7);
  std::vector<Event> events;
  for (int i = 0; i < 2; ++i) {
    Rng er = rng.split();
    events.push_back(generate_event(cfg, er));
  }
  IgnnConfig gnn;
  gnn.node_input_dim = cfg.node_feature_dim;
  gnn.edge_input_dim = cfg.edge_feature_dim;
  gnn.hidden_dim = 16;
  gnn.num_layers = 2;
  gnn.mlp_hidden = 1;
  GnnModel model(gnn, 8);
  GnnTrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 64;
  tc.shadow = {.depth = 2, .fanout = 3};
  tc.evaluate_every_epoch = false;
  train_shadow(model, events, events, tc, SamplerKind::kMatrixBulk);
  EXPECT_GT(roc_auc(score_events(model, events)), 0.75);
}

}  // namespace
}  // namespace trkx

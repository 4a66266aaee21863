#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "pipeline/checkpoint.hpp"
#include "pipeline/pipeline.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace trkx {
namespace {

DetectorConfig tiny_detector() {
  DetectorConfig cfg;
  cfg.mean_particles = 25.0;
  cfg.noise_fraction = 0.05;
  return cfg;
}

std::vector<Event> tiny_events(std::size_t count, std::uint64_t seed) {
  std::vector<Event> events;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng er = rng.split();
    events.push_back(generate_event(tiny_detector(), er));
  }
  return events;
}

// ---------- embedding ----------

TEST(EmbeddingTest, TrainingReducesLoss) {
  auto events = tiny_events(3, 1);
  EmbeddingConfig cfg;
  cfg.epochs = 6;
  cfg.pairs_per_event = 512;
  EmbeddingModel model(events[0].node_features.cols(), cfg);
  const auto losses = model.train(events);
  ASSERT_EQ(losses.size(), 6u);
  EXPECT_LT(losses.back(), losses.front() * 0.9);
}

TEST(EmbeddingTest, EmbedsToConfiguredDim) {
  auto events = tiny_events(1, 2);
  EmbeddingConfig cfg;
  cfg.embed_dim = 5;
  EmbeddingModel model(events[0].node_features.cols(), cfg);
  Matrix e = model.embed(events[0].node_features);
  EXPECT_EQ(e.rows(), events[0].hits.size());
  EXPECT_EQ(e.cols(), 5u);
  EXPECT_TRUE(e.all_finite());
}

TEST(EmbeddingTest, TrainedEmbeddingSeparatesPairs) {
  auto events = tiny_events(4, 3);
  EmbeddingConfig cfg;
  cfg.epochs = 10;
  EmbeddingModel model(events[0].node_features.cols(), cfg);
  model.train(events);
  const Event& ev = events[0];
  Matrix emb = model.embed(ev.node_features);
  auto dist = [&](std::uint32_t a, std::uint32_t b) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < emb.cols(); ++j) {
      const double d = emb(a, j) - emb(b, j);
      d2 += d * d;
    }
    return std::sqrt(d2);
  };
  // Mean true-pair distance < mean random-pair distance.
  double pos_sum = 0.0;
  std::size_t pos_n = 0;
  for (const TruthParticle& p : ev.particles)
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i) {
      pos_sum += dist(p.hits[i], p.hits[i + 1]);
      ++pos_n;
    }
  Rng rng(4);
  double neg_sum = 0.0;
  const std::size_t neg_n = 500;
  for (std::size_t i = 0; i < neg_n; ++i)
    neg_sum += dist(rng.uniform_index(ev.hits.size()),
                    rng.uniform_index(ev.hits.size()));
  ASSERT_GT(pos_n, 0u);
  EXPECT_LT(pos_sum / pos_n, 0.5 * neg_sum / neg_n);
}

// ---------- FRNN graph construction ----------

class FrnnCases
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(FrnnCases, GridMatchesBruteForce) {
  auto [n, dim, radius] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 10 + dim));
  Matrix pts = Matrix::random_uniform(n, dim, rng, 0.0f, 2.0f);
  FrnnConfig cfg;
  cfg.radius = static_cast<float>(radius);
  cfg.max_neighbors = 1000;  // no truncation → exact comparison
  Graph a = build_frnn_graph(pts, cfg);
  Graph b = build_frnn_graph_bruteforce(pts, cfg);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t e = 0; e < a.num_edges(); ++e)
    EXPECT_TRUE(a.edge(e) == b.edge(e));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FrnnCases,
    ::testing::Values(std::make_tuple(50, 2, 0.3), std::make_tuple(100, 3, 0.4),
                      std::make_tuple(200, 4, 0.5), std::make_tuple(30, 6, 0.8),
                      std::make_tuple(10, 2, 10.0)));

// The sorted-cell search must equal the brute force edge for edge at
// binding caps, where which neighbours are kept depends on the (d², j)
// tie order.
void expect_frnn_matches_bruteforce(const Matrix& pts, float radius,
                                    const std::vector<std::uint32_t>& layers =
                                        {}) {
  for (std::size_t cap : {1u, 2u, 64u}) {
    FrnnConfig cfg;
    cfg.radius = radius;
    cfg.max_neighbors = cap;
    const Graph a = build_frnn_graph(pts, cfg, layers);
    const Graph b = build_frnn_graph_bruteforce(pts, cfg, layers);
    EXPECT_EQ(a.num_vertices(), b.num_vertices());
    EXPECT_TRUE(a.edges() == b.edges())
        << pts.rows() << "x" << pts.cols() << " points, radius " << radius
        << ", cap " << cap << ": " << a.num_edges() << " vs "
        << b.num_edges() << " edges";
  }
}

// Edges the brute force keeps with no cap, to show a cap binds.
std::size_t uncapped_edges(const Matrix& pts, float radius) {
  FrnnConfig cfg;
  cfg.radius = radius;
  cfg.max_neighbors = pts.rows();
  return build_frnn_graph_bruteforce(pts, cfg).num_edges();
}

TEST(FrnnOracle, LatticeTiesAndPairsAtTheRadius) {
  // Integer and 0.1-spaced lattices, partly negative: many neighbours at
  // exactly equal distances, and neighbours at exactly the radius.
  for (float spacing : {1.0f, 0.1f}) {
    for (std::size_t dim : {2u, 3u}) {
      const std::size_t side = dim == 2 ? 9 : 5;
      std::size_t n = 1;
      for (std::size_t k = 0; k < dim; ++k) n *= side;
      Matrix pts(n, dim);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0, u = i; k < dim; ++k, u /= side)
          pts(i, k) = (static_cast<float>(u % side) - 3.0f) * spacing;
      for (float radius : {spacing, spacing * std::sqrt(2.0f), 2 * spacing})
        expect_frnn_matches_bruteforce(pts, radius);
      FrnnConfig one;
      one.radius = spacing;
      one.max_neighbors = 1;
      EXPECT_LT(build_frnn_graph_bruteforce(pts, one).num_edges(),
                uncapped_edges(pts, spacing));
    }
  }
}

TEST(FrnnOracle, PairsTheFloatTestAcceptsJustBeyondTheRadius) {
  // The pairs are r + 2^-26 apart along dimension 0, but the float
  // difference rounds to r and d² to r², so the brute force keeps them.
  // x = 2r and x = r − 2^-26 lie two radius-wide cells apart, so the
  // search must look beyond radius-wide cells.
  const float r = 0.25f, below_r = 0.249999985f;
  for (const auto& [y0, y1] : {std::pair{0.2186836f, 0.218675613f},
                               std::pair{-0.877480924f, -0.877501547f},
                               std::pair{0.858435392f, 0.858380556f}}) {
    const Matrix pts{{2 * r, y0}, {below_r, y1}};
    FrnnConfig cfg;
    cfg.radius = r;
    ASSERT_EQ(build_frnn_graph_bruteforce(pts, cfg).num_edges(), 1u);
    expect_frnn_matches_bruteforce(pts, r);
  }
}

TEST(FrnnOracle, DuplicatePointsAndNegativeCoordinates) {
  Rng rng(41);
  Matrix pts = Matrix::random_uniform(120, 3, rng, -2.0f, 2.0f);
  // Every fourth point repeats an earlier one, some of them three times.
  for (std::size_t i = 4; i < pts.rows(); i += 4)
    for (std::size_t k = 0; k < 3; ++k) pts(i, k) = pts(i / 8, k);
  expect_frnn_matches_bruteforce(pts, 0.6f);
}

TEST(FrnnOracle, DimensionsAndTinyInputs) {
  for (std::size_t dim : {1u, 2u, 4u, 8u}) {
    for (std::size_t n : {0u, 1u, 2u}) {
      Rng rng(50 + dim * 3 + n);
      expect_frnn_matches_bruteforce(
          Matrix::random_uniform(n, dim, rng, -0.2f, 0.2f), 0.5f);
    }
    Rng rng(60 + dim);
    expect_frnn_matches_bruteforce(
        Matrix::random_uniform(300, dim, rng, -1.0f, 1.0f),
        dim == 1 ? 0.01f : 0.3f * static_cast<float>(dim));
  }
}

TEST(FrnnOracle, ClusteredPointsFillCells) {
  // ~5,000 points in 40 tight clusters: each cell holds many points.
  Rng rng(42);
  const std::size_t clusters = 40, per = 125;
  Matrix pts(clusters * per, 4);
  for (std::size_t c = 0; c < clusters; ++c) {
    float centre[4];
    for (float& x : centre) x = rng.uniform(-3.0f, 3.0f);
    for (std::size_t i = 0; i < per; ++i)
      for (std::size_t k = 0; k < 4; ++k)
        pts(c * per + i, k) =
            centre[k] + static_cast<float>(rng.normal(0.0, 0.08));
  }
  expect_frnn_matches_bruteforce(pts, 0.4f);
  FrnnConfig cap64;
  cap64.radius = 0.4f;
  EXPECT_LT(build_frnn_graph_bruteforce(pts, cap64).num_edges(),
            uncapped_edges(pts, 0.4f));
}

TEST(FrnnOracle, LayerOrientation) {
  Rng rng(43);
  Matrix pts = Matrix::random_uniform(200, 4, rng, 0.0f, 2.0f);
  std::vector<std::uint32_t> layers(pts.rows());
  for (std::uint32_t& l : layers)
    l = static_cast<std::uint32_t>(rng.uniform_index(5));
  expect_frnn_matches_bruteforce(pts, 0.5f, layers);
}

TEST(FrnnOracle, NanRowAndFarOutliers) {
  // A NaN row never connects; 1e30 outliers (beyond any int32 cell index)
  // still connect to each other, and a lone one to nothing.
  Rng rng(44);
  Matrix pts = Matrix::random_uniform(150, 3, rng, -1.0f, 1.0f);
  for (std::size_t k = 0; k < 3; ++k) {
    pts(10, k) = std::numeric_limits<float>::quiet_NaN();
    pts(20, k) = 1e30f;
    pts(21, k) = 1e30f;
    pts(30, k) = k == 0 ? -1e30f : pts(31, k);
  }
  expect_frnn_matches_bruteforce(pts, 0.5f);
  FrnnConfig cfg;
  cfg.radius = 0.5f;
  const Graph g = build_frnn_graph(pts, cfg);
  EXPECT_NE(g.find_edge(20, 21), Graph::kNoEdge);
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.src, 10u);
    EXPECT_NE(e.dst, 10u);
  }
}

TEST(FrnnTest, EdgesWithinRadius) {
  Rng rng(5);
  Matrix pts = Matrix::random_uniform(80, 3, rng);
  FrnnConfig cfg;
  cfg.radius = 0.25f;
  Graph g = build_frnn_graph(pts, cfg);
  for (const Edge& e : g.edges()) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      const double d = pts(e.src, j) - pts(e.dst, j);
      d2 += d * d;
    }
    EXPECT_LE(std::sqrt(d2), 0.25 + 1e-6);
  }
}

TEST(FrnnTest, MaxNeighborsCaps) {
  // A dense cluster: every point within radius of every other.
  Matrix pts(20, 2, 0.0f);
  Rng rng(6);
  for (float& x : pts.flat()) x = rng.uniform(0.0f, 0.01f);
  FrnnConfig cfg;
  cfg.radius = 1.0f;
  cfg.max_neighbors = 3;
  Graph g = build_frnn_graph(pts, cfg);
  // Each ordered pair counted once at the lower index; per-query cap 3.
  EXPECT_LE(g.num_edges(), 20u * 3u);
}

TEST(FrnnTest, LayerOrientationRespected) {
  Matrix pts{{0, 0}, {0.1f, 0}, {0.2f, 0}};
  FrnnConfig cfg;
  cfg.radius = 0.15f;
  Graph g = build_frnn_graph(pts, cfg, {2, 1, 0});
  for (const Edge& e : g.edges()) EXPECT_GT(e.src, e.dst);  // layer asc
}

TEST(FrnnTest, RebuildEventGraphRelabelsTruth) {
  auto events = tiny_events(1, 7);
  Event& ev = events[0];
  // Identity "embedding": raw positions scaled — truth pairs are nearby.
  Matrix pos(ev.hits.size(), 3);
  for (std::size_t i = 0; i < ev.hits.size(); ++i) {
    pos(i, 0) = ev.hits[i].x / 100.0f;
    pos(i, 1) = ev.hits[i].y / 100.0f;
    pos(i, 2) = ev.hits[i].z / 100.0f;
  }
  FrnnConfig cfg;
  cfg.radius = 3.0f;
  FeatureScales scales;
  rebuild_event_graph(ev, pos, cfg, 2, scales);
  EXPECT_EQ(ev.edge_labels.size(), ev.graph.num_edges());
  EXPECT_EQ(ev.edge_features.rows(), ev.graph.num_edges());
  EXPECT_GT(ev.positive_edge_fraction(), 0.0);
}

// ---------- filter ----------

TEST(FilterTest, TrainingReducesLossAndPrunes) {
  auto events = tiny_events(3, 8);
  FilterConfig cfg;
  cfg.epochs = 8;
  FilterModel filter(events[0].node_features.cols(),
                     events[0].edge_features.cols(), cfg);
  const auto losses = filter.train(events);
  EXPECT_LT(losses.back(), losses.front());

  Event ev = events[0];
  const std::size_t before = ev.num_edges();
  const double pos_before = ev.positive_edge_fraction();
  const std::size_t removed = filter.apply(ev);
  EXPECT_EQ(ev.num_edges(), before - removed);
  EXPECT_EQ(ev.edge_labels.size(), ev.num_edges());
  EXPECT_EQ(ev.edge_features.rows(), ev.num_edges());
  if (removed > 0) {
    // Pruning fakes raises the positive fraction.
    EXPECT_GT(ev.positive_edge_fraction(), pos_before);
  }
}

TEST(FilterTest, ScoresAreProbabilities) {
  auto events = tiny_events(1, 9);
  FilterModel filter(events[0].node_features.cols(),
                     events[0].edge_features.cols(), FilterConfig{});
  const auto scores = filter.score(events[0]);
  ASSERT_EQ(scores.size(), events[0].num_edges());
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

// ---------- track building ----------

TEST(TrackBuildTest, PerfectScoresRecoverTracks) {
  auto events = tiny_events(1, 10);
  const Event& ev = events[0];
  // Oracle scores = truth labels.
  std::vector<float> scores(ev.num_edges());
  for (std::size_t e = 0; e < ev.num_edges(); ++e)
    scores[e] = ev.edge_labels[e] ? 1.0f : 0.0f;
  TrackBuildConfig cfg;
  auto tracks = build_tracks(ev, scores, cfg);
  auto metrics = score_tracks(ev, tracks, cfg);
  EXPECT_GT(metrics.reconstructable, 0u);
  EXPECT_GT(metrics.efficiency(), 0.85);
  EXPECT_LT(metrics.fake_rate(), 0.15);
}

TEST(TrackBuildTest, ZeroScoresYieldNoTracks) {
  auto events = tiny_events(1, 11);
  const Event& ev = events[0];
  std::vector<float> scores(ev.num_edges(), 0.0f);
  auto tracks = build_tracks(ev, scores, TrackBuildConfig{});
  EXPECT_TRUE(tracks.empty());
}

TEST(TrackBuildTest, KeepingAllEdgesIsNoBetterThanOracle) {
  // Keeping every candidate edge merges tracks through fake edges; the
  // result cannot beat oracle scores on efficiency and merges components
  // (fewer candidates than true tracks in a dense event).
  DetectorConfig dense = tiny_detector();
  dense.mean_particles = 150.0;
  Rng rng(12);
  Event ev = generate_event(dense, rng);
  TrackBuildConfig cfg;
  std::vector<float> all_on(ev.num_edges(), 1.0f);
  std::vector<float> oracle(ev.num_edges());
  for (std::size_t e = 0; e < ev.num_edges(); ++e)
    oracle[e] = ev.edge_labels[e] ? 1.0f : 0.0f;
  auto m_all = score_tracks(ev, build_tracks(ev, all_on, cfg), cfg);
  auto m_oracle = score_tracks(ev, build_tracks(ev, oracle, cfg), cfg);
  EXPECT_LE(m_all.efficiency(), m_oracle.efficiency());
  EXPECT_LT(m_all.candidates, m_oracle.candidates);
}

TEST(TrackBuildTest, MinHitsFilters) {
  Graph g(5, {{0, 1}, {2, 3}});
  Event ev;
  ev.hits.resize(5);
  ev.graph = g;
  ev.edge_labels.assign(2, 1);
  TrackBuildConfig cfg;
  cfg.min_hits = 3;
  auto tracks = build_tracks(ev, {1.0f, 1.0f}, cfg);
  EXPECT_TRUE(tracks.empty());  // components of size 2 are dropped
  cfg.min_hits = 2;
  tracks = build_tracks(ev, {1.0f, 1.0f}, cfg);
  EXPECT_EQ(tracks.size(), 2u);
}

TEST(TrackBuildTest, ScoreSizeMismatchThrows) {
  auto events = tiny_events(1, 13);
  EXPECT_THROW(build_tracks(events[0], {0.5f}, TrackBuildConfig{}), Error);
}

// ---------- GNN training modes ----------

GnnTrainConfig fast_train_config() {
  GnnTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 64;
  cfg.shadow = {.depth = 2, .fanout = 3};
  cfg.bulk_k = 2;
  cfg.evaluate_every_epoch = true;
  return cfg;
}

IgnnConfig fast_gnn_config(const Event& sample) {
  IgnnConfig cfg;
  cfg.node_input_dim = sample.node_features.cols();
  cfg.edge_input_dim = sample.edge_features.cols();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.mlp_hidden = 1;
  return cfg;
}

TEST(GnnTrainTest, AutoPosWeightReflectsImbalance) {
  auto events = tiny_events(2, 14);
  const float w = auto_pos_weight(events);
  EXPECT_GE(w, 1.0f);
  EXPECT_LE(w, 20.0f);
}

TEST(GnnTrainTest, FullGraphTrainingRunsAndRecords) {
  auto events = tiny_events(3, 15);
  auto val = tiny_events(1, 16);
  GnnModel model(fast_gnn_config(events[0]), 99);
  auto result = train_full_graph(model, events, val, fast_train_config());
  ASSERT_EQ(result.epochs.size(), 2u);
  EXPECT_GT(result.epochs[0].timers.get("train"), 0.0);
  EXPECT_EQ(result.skipped_graphs, 0u);
  EXPECT_GT(result.epochs.back().val.total(), 0u);
}

TEST(GnnTrainTest, FullGraphSkipsOversizedGraphs) {
  auto events = tiny_events(3, 17);
  auto val = tiny_events(1, 18);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 1;
  GnnModel model(fast_gnn_config(events[0]), 99);
  std::size_t smallest = std::numeric_limits<std::size_t>::max();
  for (const Event& e : events)
    smallest = std::min(smallest, full_graph_memory_estimate(model.config, e));
  cfg.memory_budget_bytes = smallest - 1;  // everything is oversized
  auto result = train_full_graph(model, events, val, cfg);
  EXPECT_EQ(result.skipped_graphs, events.size());
  EXPECT_EQ(result.epochs[0].train_loss, 0.0);
}

TEST(GnnTrainTest, FullGraphStepsOncePerTrainableEventPerEpoch) {
  // One empty, one edgeless, two normal and one oversized event: only the
  // two normal events take a step, once each per epoch.
  auto events = tiny_events(3, 50);
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.num_edges() < b.num_edges();
  });
  ASSERT_GT(events[2].num_edges(), events[1].num_edges());
  Event edgeless = events[0];
  edgeless.graph = Graph(edgeless.num_hits(), {});
  edgeless.edge_labels.clear();
  edgeless.edge_features = Matrix(0, events[0].edge_features.cols());
  Event empty;
  empty.node_features = Matrix(0, events[0].node_features.cols());
  empty.edge_features = Matrix(0, events[0].edge_features.cols());
  events.push_back(std::move(edgeless));
  events.push_back(std::move(empty));
  auto val = tiny_events(1, 51);

  GnnModel model(fast_gnn_config(events[0]), 99);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 3;
  // Only events[2] is oversized.
  for (const Event& e : events)
    if (&e != &events[2])
      cfg.memory_budget_bytes = std::max(
          cfg.memory_budget_bytes, full_graph_memory_estimate(model.config, e));
  ASSERT_GT(full_graph_memory_estimate(model.config, events[2]),
            cfg.memory_budget_bytes);
  // The last checkpoint's step cursor counts every optimizer step taken.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "trkx_full_graph_steps";
  std::filesystem::remove_all(dir);
  cfg.checkpoint_dir = dir.string();
  const TrainResult result = train_full_graph(model, events, val, cfg);
  ASSERT_EQ(result.epochs.size(), 3u);
  EXPECT_EQ(result.skipped_graphs, 1u);
  GnnModel probe(model.config, 99);
  Adam opt(probe.store, AdamOptions{});
  const TrainCheckpointState last =
      read_checkpoint(latest_checkpoint(cfg.checkpoint_dir), probe.store, opt);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(last.next_epoch, 3u);
  EXPECT_EQ(last.global_step, 6u);  // 3 epochs × 2 trainable events
}

class ShadowTrainModes : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(ShadowTrainModes, LossDecreasesOverEpochs) {
  auto events = tiny_events(2, 19);
  auto val = tiny_events(1, 20);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 3;
  GnnModel model(fast_gnn_config(events[0]), 100);
  auto result = train_shadow(model, events, val, cfg, GetParam());
  ASSERT_EQ(result.epochs.size(), 3u);
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss);
  EXPECT_GT(result.epochs[0].timers.get("sample"), 0.0);
  EXPECT_GT(result.epochs[0].timers.get("train"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ShadowTrainModes,
                         ::testing::Values(SamplerKind::kReference,
                                           SamplerKind::kMatrixBulk));

TEST(GnnTrainTest, EvaluateEdgesCountsAllValEdges) {
  auto events = tiny_events(1, 21);
  GnnModel model(fast_gnn_config(events[0]), 101);
  BinaryMetrics m = evaluate_edges(model, events);
  EXPECT_EQ(m.total(), events[0].num_edges());
}

TEST(GnnTrainTest, DdpMatchesSingleProcessStepCount) {
  auto events = tiny_events(2, 22);
  auto val = tiny_events(1, 23);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 1;
  GnnModel model(fast_gnn_config(events[0]), 102);
  DistRuntime rt(2);
  auto result =
      train_shadow_ddp(model, events, val, cfg, rt, SamplerKind::kMatrixBulk);
  ASSERT_EQ(result.epochs.size(), 1u);
  EXPECT_GT(result.comm.all_reduce_calls, 0u);
  EXPECT_TRUE(std::isfinite(result.epochs[0].train_loss));
}

TEST(GnnTrainTest, DdpReplicasStayInSync) {
  // After DDP training the returned model must produce finite,
  // deterministic outputs (replica 0 copied back).
  auto events = tiny_events(2, 24);
  auto val = tiny_events(1, 25);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 1;
  GnnModel m1(fast_gnn_config(events[0]), 103);
  GnnModel m2(fast_gnn_config(events[0]), 103);
  DistRuntime rt(2);
  train_shadow_ddp(m1, events, val, cfg, rt, SamplerKind::kReference);
  DistRuntime rt2(2);
  train_shadow_ddp(m2, events, val, cfg, rt2, SamplerKind::kReference);
  // Same seeds → identical final weights.
  EXPECT_EQ(m1.store.flatten_values(), m2.store.flatten_values());
}

TEST(GnnTrainTest, SyncStrategiesGiveSameModel) {
  auto events = tiny_events(2, 26);
  auto val = tiny_events(1, 27);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 1;
  GnnModel m1(fast_gnn_config(events[0]), 104);
  GnnModel m2(fast_gnn_config(events[0]), 104);
  cfg.sync = SyncStrategy::kPerTensor;
  DistRuntime rt1(2);
  train_shadow_ddp(m1, events, val, cfg, rt1, SamplerKind::kReference);
  cfg.sync = SyncStrategy::kCoalesced;
  DistRuntime rt2(2);
  train_shadow_ddp(m2, events, val, cfg, rt2, SamplerKind::kReference);
  EXPECT_EQ(m1.store.flatten_values(), m2.store.flatten_values());
}

TEST(EarlyStoppingTest, StopsAfterPatience) {
  EarlyStopping es(2);
  EXPECT_TRUE(es.update(0.5));
  EXPECT_FALSE(es.should_stop());
  EXPECT_FALSE(es.update(0.4));
  EXPECT_FALSE(es.should_stop());
  EXPECT_FALSE(es.update(0.45));
  EXPECT_TRUE(es.should_stop());
  EXPECT_DOUBLE_EQ(es.best(), 0.5);
}

TEST(EarlyStoppingTest, ImprovementResetsCounter) {
  EarlyStopping es(2);
  es.update(0.5);
  es.update(0.4);
  EXPECT_TRUE(es.update(0.6));
  EXPECT_EQ(es.epochs_since_best(), 0u);
  EXPECT_FALSE(es.should_stop());
}

TEST(GnnTrainTest, EarlyStoppingTruncatesTraining) {
  auto events = tiny_events(2, 40);
  auto val = tiny_events(1, 41);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 50;  // would take forever without early stop
  cfg.early_stop_patience = 1;
  GnnModel model(fast_gnn_config(events[0]), 200);
  auto result =
      train_shadow(model, events, val, cfg, SamplerKind::kMatrixBulk);
  EXPECT_LT(result.epochs.size(), 50u);
  EXPECT_GE(result.epochs.size(), 2u);  // needs ≥ patience+1 epochs
}

TEST(GnnTrainTest, EarlyStoppingWorksUnderDdp) {
  auto events = tiny_events(2, 42);
  auto val = tiny_events(1, 43);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 30;
  cfg.early_stop_patience = 1;
  GnnModel model(fast_gnn_config(events[0]), 201);
  DistRuntime rt(2);
  auto result =
      train_shadow_ddp(model, events, val, cfg, rt, SamplerKind::kReference);
  EXPECT_LT(result.epochs.size(), 30u);
}

TEST(GnnTrainTest, KeepBestWeightsRestoresBestEpoch) {
  auto events = tiny_events(2, 48);
  auto val = tiny_events(1, 49);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 4;
  cfg.keep_best_weights = true;
  GnnModel model(fast_gnn_config(events[0]), 300);
  auto result =
      train_shadow(model, events, val, cfg, SamplerKind::kMatrixBulk);
  // Final model evaluation must equal the selected epoch's metrics.
  ASSERT_LT(result.selected_epoch, result.epochs.size());
  const BinaryMetrics final_val = evaluate_edges(model, val);
  const BinaryMetrics& best = result.epochs[result.selected_epoch].val;
  EXPECT_EQ(final_val.true_positives, best.true_positives);
  EXPECT_EQ(final_val.false_positives, best.false_positives);
  // And the selected epoch is the argmax of F1 across epochs.
  for (const auto& e : result.epochs)
    EXPECT_LE(e.val.f1(), best.f1() + 1e-12);
}

TEST(PipelineTest, SaveLoadRoundTripPreservesReconstruction) {
  auto train = tiny_events(2, 46);
  auto val = tiny_events(1, 47);
  PipelineConfig cfg;
  cfg.embedding.epochs = 2;
  cfg.filter.epochs = 2;
  cfg.gnn.hidden_dim = 8;
  cfg.gnn.num_layers = 1;
  cfg.gnn.mlp_hidden = 1;
  cfg.gnn_train.epochs = 1;
  cfg.gnn_train.batch_size = 64;
  cfg.gnn_train.shadow = {.depth = 2, .fanout = 3};
  cfg.use_learned_graphs = false;
  TrackingPipeline original(train[0].node_features.cols(),
                            train[0].edge_features.cols(), cfg);
  original.fit(train, val);
  std::stringstream ss;
  original.save(ss);

  TrackingPipeline restored(train[0].node_features.cols(),
                            train[0].edge_features.cols(), cfg);
  restored.load(ss);
  const PipelineOutput a = original.reconstruct(val[0]);
  const PipelineOutput b = restored.reconstruct(val[0]);
  EXPECT_EQ(a.tracks.size(), b.tracks.size());
  EXPECT_EQ(a.metrics.matched, b.metrics.matched);
  EXPECT_EQ(a.edge_metrics.true_positives, b.edge_metrics.true_positives);
}

// ---------- model file ----------

/// A small untrained pipeline; `seed` varies every stage's initial weights.
std::unique_ptr<TrackingPipeline> model_pipeline(std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.gnn.hidden_dim = 8;
  cfg.gnn.num_layers = 1;
  cfg.gnn.mlp_hidden = 1;
  cfg.embedding.seed = seed;
  cfg.filter.seed = seed + 1;
  cfg.gnn_train.seed = seed + 2;
  const DetectorConfig detector;
  return std::make_unique<TrackingPipeline>(
      detector.node_feature_dim, detector.edge_feature_dim, cfg);
}

std::string model_bytes(const TrackingPipeline& pipeline) {
  std::ostringstream os;
  pipeline.save(os);
  return os.str();
}

void load_model(TrackingPipeline& pipeline, const std::string& bytes) {
  std::istringstream is(bytes);
  pipeline.load(is);
}

TEST(PipelineModelTest, FlippedWeightByteIsRejected) {
  std::string bytes = model_bytes(*model_pipeline(10));
  bytes[bytes.size() - 3] ^= 0x10;  // inside the last GNN weight
  auto target = model_pipeline(20);
  const std::string before = model_bytes(*target);
  EXPECT_THROW(load_model(*target, bytes), CheckpointError);
  EXPECT_EQ(model_bytes(*target), before);
}

TEST(PipelineModelTest, NanFeatureScaleIsRejected) {
  std::string bytes = model_bytes(*model_pipeline(10));
  // An untrained pipeline carries the default scales back to back.
  const FeatureScales defaults;
  std::string pattern(3 * sizeof(float), '\0');
  std::memcpy(&pattern[0], &defaults.r_max, sizeof(float));
  std::memcpy(&pattern[4], &defaults.z_max, sizeof(float));
  std::memcpy(&pattern[8], &defaults.eta_max, sizeof(float));
  const std::size_t at = bytes.find(pattern);
  ASSERT_NE(at, std::string::npos);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(&bytes[at], &nan, sizeof(nan));
  // Re-seal the envelope {magic, version, u64 length, u32 crc32, payload}
  // so that only the scale check itself can reject the file.
  const std::uint32_t crc = crc32(bytes.data() + 20, bytes.size() - 20);
  std::memcpy(&bytes[16], &crc, sizeof(crc));
  auto target = model_pipeline(20);
  const std::string before = model_bytes(*target);
  EXPECT_THROW(load_model(*target, bytes), CheckpointError);
  EXPECT_EQ(model_bytes(*target), before);
}

TEST(PipelineModelTest, TruncatedFileLeavesPipelineUnchanged) {
  const std::string bytes = model_bytes(*model_pipeline(10));
  auto target = model_pipeline(20);
  const std::string before = model_bytes(*target);
  ASSERT_NE(before, bytes);
  EXPECT_THROW(load_model(*target, bytes.substr(0, bytes.size() / 2)),
               CheckpointError);
  EXPECT_EQ(model_bytes(*target), before);
}

TEST(PipelineModelTest, RoundTripAndTrailingBytes) {
  const std::string bytes = model_bytes(*model_pipeline(10));
  auto target = model_pipeline(20);
  EXPECT_THROW(load_model(*target, bytes + "x"), CheckpointError);
  load_model(*target, bytes);
  EXPECT_EQ(model_bytes(*target), bytes);
}

// ---------- full pipeline ----------

TEST(PipelineTest, FitAndReconstructEndToEnd) {
  auto train = tiny_events(3, 28);
  auto val = tiny_events(1, 29);
  PipelineConfig cfg;
  cfg.embedding.epochs = 3;
  cfg.filter.epochs = 3;
  cfg.gnn.hidden_dim = 16;
  cfg.gnn.num_layers = 2;
  cfg.gnn.mlp_hidden = 1;
  cfg.gnn_train.epochs = 2;
  cfg.gnn_train.batch_size = 64;
  cfg.gnn_train.shadow = {.depth = 2, .fanout = 3};
  cfg.use_learned_graphs = false;  // geometric graphs: the paper's regime
  TrackingPipeline pipeline(train[0].node_features.cols(),
                            train[0].edge_features.cols(), cfg);
  auto result = pipeline.fit(train, val);
  EXPECT_EQ(result.epochs.size(), 2u);
  PipelineOutput out = pipeline.reconstruct(val[0]);
  EXPECT_GT(out.metrics.reconstructable, 0u);
  EXPECT_LE(out.metrics.matched, out.metrics.reconstructable);
  EXPECT_LE(out.metrics.fake_candidates, out.metrics.candidates);
  EXPECT_GE(out.metrics.efficiency(), 0.0);
  EXPECT_GT(out.edge_metrics.total(), 0u);
}

TEST(PipelineTest, LearnedGraphModeRuns) {
  auto train = tiny_events(2, 30);
  auto val = tiny_events(1, 31);
  PipelineConfig cfg;
  cfg.embedding.epochs = 4;
  cfg.frnn.radius = 0.6f;
  cfg.filter.epochs = 2;
  cfg.gnn.hidden_dim = 8;
  cfg.gnn.num_layers = 1;
  cfg.gnn.mlp_hidden = 1;
  cfg.gnn_train.epochs = 1;
  cfg.gnn_train.batch_size = 64;
  cfg.gnn_train.shadow = {.depth = 2, .fanout = 3};
  cfg.use_learned_graphs = true;
  TrackingPipeline pipeline(train[0].node_features.cols(),
                            train[0].edge_features.cols(), cfg);
  auto result = pipeline.fit(train, val);
  EXPECT_EQ(result.epochs.size(), 1u);
  PipelineOutput out = pipeline.reconstruct(val[0]);
  EXPECT_GE(out.metrics.candidates, 0u);
}

}  // namespace
}  // namespace trkx

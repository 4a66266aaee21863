#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "detector/helix.hpp"
#include "detector/presets.hpp"
#include "pipeline/graph_construction.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

// ---------- helix ----------

TEST(HelixTest, RadiusMatchesPtOverQB) {
  ParticleState s;
  s.pt = 1.0;  // GeV
  Helix h(s, 2.0);
  EXPECT_NEAR(h.radius(), 1.0 / 0.6 * 1000.0, 1e-6);  // mm
}

TEST(HelixTest, StartsAtOriginWithCorrectDirection) {
  ParticleState s;
  s.phi0 = 0.7;
  s.z0 = 12.0;
  Helix h(s, 2.0);
  const HitPoint p0 = h.at(0.0);
  EXPECT_NEAR(p0.x, 0.0, 1e-9);
  EXPECT_NEAR(p0.y, 0.0, 1e-9);
  EXPECT_NEAR(p0.z, 12.0, 1e-9);
  // Small step moves along (cos φ0, sin φ0).
  const HitPoint p1 = h.at(1e-4);
  EXPECT_NEAR(std::atan2(p1.y, p1.x), 0.7, 1e-3);
}

TEST(HelixTest, TransverseDistanceFormula) {
  // d(t) = 2R sin(t/2), independent of charge.
  for (int charge : {1, -1}) {
    ParticleState s;
    s.pt = 2.0;
    s.phi0 = 1.1;
    s.charge = charge;
    Helix h(s, 2.0);
    for (double t : {0.1, 0.5, 1.0, 2.0}) {
      const HitPoint p = h.at(t);
      EXPECT_NEAR(p.r(), 2.0 * h.radius() * std::sin(t / 2.0),
                  1e-6 * h.radius());
    }
  }
}

TEST(HelixTest, LayerCrossingIsOnLayer) {
  ParticleState s;
  s.pt = 1.5;
  s.phi0 = -2.0;
  s.eta = 0.8;
  s.charge = -1;
  Helix h(s, 2.0);
  auto p = h.intersect_layer(500.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->r(), 500.0, 1e-6);
}

TEST(HelixTest, LowPtCurlsBeforeOuterLayer) {
  ParticleState s;
  s.pt = 0.1;  // R = 166.7mm, reach = 333mm
  Helix h(s, 2.0);
  EXPECT_TRUE(h.intersect_layer(300.0).has_value());
  EXPECT_FALSE(h.intersect_layer(400.0).has_value());
}

TEST(HelixTest, ZAdvancesWithEta) {
  ParticleState s;
  s.eta = 1.0;
  s.z0 = 0.0;
  Helix h(s, 2.0);
  auto t = h.turning_angle_at_radius(300.0);
  ASSERT_TRUE(t.has_value());
  const HitPoint p = h.at(*t);
  // z = R·t·sinh(η); with η=1 the hit z should be positive and ~arc*1.1752.
  EXPECT_NEAR(p.z, h.radius() * (*t) * std::sinh(1.0), 1e-6);
  EXPECT_GT(p.z, 0.0);
}

TEST(HelixTest, OppositeChargesBendOppositely) {
  ParticleState plus, minus;
  plus.charge = 1;
  minus.charge = -1;
  Helix hp(plus, 2.0), hm(minus, 2.0);
  auto t = hp.turning_angle_at_radius(200.0);
  ASSERT_TRUE(t.has_value());
  const HitPoint pp = hp.at(*t);
  const HitPoint pm = hm.at(*t);
  // Same radius, mirrored azimuth relative to φ0 = 0.
  EXPECT_NEAR(pp.y, -pm.y, 1e-6);
  EXPECT_NEAR(pp.x, pm.x, 1e-6);
}

TEST(HelixTest, InvalidInputsThrow) {
  ParticleState s;
  s.pt = 0.0;
  EXPECT_THROW(Helix(s, 2.0), Error);
  s.pt = 1.0;
  s.charge = 2;
  EXPECT_THROW(Helix(s, 2.0), Error);
}

// ---------- event generation ----------

DetectorConfig tiny_config() {
  DetectorConfig cfg;
  cfg.mean_particles = 30.0;
  cfg.noise_fraction = 0.05;
  return cfg;
}

TEST(EventGenTest, HitsLieOnLayers) {
  Rng rng(1);
  Event e = generate_event(tiny_config(), rng);
  ASSERT_GT(e.hits.size(), 0u);
  const auto& radii = tiny_config().layer_radii;
  for (const Hit& h : e.hits) {
    ASSERT_LT(h.layer, radii.size());
    // Smearing is ~0.5mm in rφ; radius stays within a few mm.
    EXPECT_NEAR(h.r(), radii[h.layer], 5.0);
    EXPECT_LE(std::fabs(h.z), tiny_config().barrel_half_length + 5.0);
  }
}

TEST(EventGenTest, TruthHitsAreLayerOrdered) {
  Rng rng(2);
  Event e = generate_event(tiny_config(), rng);
  for (const TruthParticle& p : e.particles) {
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i) {
      EXPECT_LT(e.hits[p.hits[i]].layer, e.hits[p.hits[i + 1]].layer);
      EXPECT_EQ(e.hits[p.hits[i]].particle, e.hits[p.hits[i + 1]].particle);
    }
  }
}

TEST(EventGenTest, LabelsMarkTrueSegmentsOnly) {
  Rng rng(3);
  Event e = generate_event(tiny_config(), rng);
  ASSERT_EQ(e.edge_labels.size(), e.graph.num_edges());
  // Every positively labelled edge must be a consecutive same-particle pair.
  std::set<std::pair<std::uint32_t, std::uint32_t>> true_segments;
  for (const TruthParticle& p : e.particles)
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i)
      true_segments.insert({p.hits[i], p.hits[i + 1]});
  std::size_t positives = 0;
  for (std::size_t i = 0; i < e.graph.num_edges(); ++i) {
    const Edge& edge = e.graph.edge(i);
    if (e.edge_labels[i]) {
      ++positives;
      EXPECT_TRUE(true_segments.count({edge.src, edge.dst}));
    }
  }
  EXPECT_GT(positives, 0u);
}

TEST(EventGenTest, MostTrueSegmentsCaptured) {
  // The connection windows should capture the bulk of truth segments
  // (graph-construction efficiency), or the GNN has nothing to learn.
  Rng rng(4);
  Event e = generate_event(tiny_config(), rng);
  std::size_t captured = 0, total = 0;
  for (const TruthParticle& p : e.particles) {
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i) {
      ++total;
      if (e.graph.find_edge(p.hits[i], p.hits[i + 1]) != Graph::kNoEdge)
        ++captured;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(captured) / total, 0.8);
}

TEST(EventGenTest, EdgesPointOutward) {
  Rng rng(5);
  Event e = generate_event(tiny_config(), rng);
  for (const Edge& edge : e.graph.edges())
    EXPECT_LT(e.hits[edge.src].layer, e.hits[edge.dst].layer);
}

TEST(EventGenTest, FeaturesFiniteAndShaped) {
  Rng rng(6);
  DetectorConfig cfg = tiny_config();
  cfg.node_feature_dim = 14;
  cfg.edge_feature_dim = 8;
  Event e = generate_event(cfg, rng);
  EXPECT_EQ(e.node_features.rows(), e.hits.size());
  EXPECT_EQ(e.node_features.cols(), 14u);
  EXPECT_EQ(e.edge_features.rows(), e.graph.num_edges());
  EXPECT_EQ(e.edge_features.cols(), 8u);
  EXPECT_TRUE(e.node_features.all_finite());
  EXPECT_TRUE(e.edge_features.all_finite());
}

TEST(EventGenTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  Event e1 = generate_event(tiny_config(), a);
  Event e2 = generate_event(tiny_config(), b);
  ASSERT_EQ(e1.hits.size(), e2.hits.size());
  ASSERT_EQ(e1.graph.num_edges(), e2.graph.num_edges());
  EXPECT_EQ(e1.node_features, e2.node_features);
  EXPECT_EQ(e1.edge_labels, e2.edge_labels);
}

TEST(EventGenTest, NoiseHitsPresent) {
  Rng rng(8);
  DetectorConfig cfg = tiny_config();
  cfg.noise_fraction = 0.3;
  Event e = generate_event(cfg, rng);
  std::size_t noise = 0;
  for (const Hit& h : e.hits) noise += (h.particle == Hit::kNoise);
  EXPECT_GT(noise, 0u);
}

TEST(EventGenTest, PositiveFractionReasonable) {
  Rng rng(9);
  Event e = generate_event(tiny_config(), rng);
  const double f = e.positive_edge_fraction();
  EXPECT_GT(f, 0.01);
  EXPECT_LT(f, 0.95);
}

// ---------- endcaps / displaced / duplicates ----------

DetectorConfig endcap_config() {
  DetectorConfig cfg = tiny_config();
  cfg.barrel_half_length = 1200.0;
  cfg.endcap_z = {1300, 1600, 1900};
  cfg.endcap_r_min = 40.0;
  cfg.endcap_r_max = 1000.0;
  cfg.eta_max = 3.5;  // forward tracks to populate the disks
  return cfg;
}

TEST(EndcapTest, DiskCrossingGeometry) {
  ParticleState s;
  s.pt = 1.0;
  s.eta = 2.5;
  s.z0 = 0.0;
  Helix h(s, 2.0);
  const auto p = h.intersect_disk(1500.0, 40.0, 1000.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->z, 1500.0, 1e-9);
  EXPECT_GE(p->r(), 40.0);
  EXPECT_LE(p->r(), 1000.0);
  // Backward disk is unreachable for a forward track.
  EXPECT_FALSE(h.intersect_disk(-1500.0, 40.0, 1000.0).has_value());
  // A central track never reaches z = 1500 within the first half turn.
  ParticleState central;
  central.eta = 0.0;
  EXPECT_FALSE(
      Helix(central, 2.0).intersect_disk(1500.0, 40.0, 1000.0).has_value());
}

TEST(EndcapTest, EndcapHitsAppearForForwardTracks) {
  Rng rng(20);
  DetectorConfig cfg = endcap_config();
  Event e = generate_event(cfg, rng);
  const std::size_t num_barrel = cfg.layer_radii.size();
  std::size_t disk_hits = 0;
  for (const Hit& h : e.hits) {
    if (h.layer >= num_barrel) {
      ++disk_hits;
      ASSERT_LT(h.layer, cfg.num_surfaces());
      // Disk hits sit exactly on a disk plane (z smearing is zero there).
      const std::size_t d = (h.layer - num_barrel) / 2;
      EXPECT_NEAR(std::fabs(h.z), cfg.endcap_z[d], 1e-3);
    }
  }
  EXPECT_GT(disk_hits, 0u);
}

TEST(EndcapTest, TruthSequencesFollowTrajectoryOrder) {
  Rng rng(21);
  DetectorConfig cfg = endcap_config();
  Event e = generate_event(cfg, rng);
  // Along any trajectory r is non-decreasing within the first half turn.
  for (const TruthParticle& p : e.particles)
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i)
      EXPECT_LE(e.hits[p.hits[i]].r(), e.hits[p.hits[i + 1]].r() + 1.0f);
}

TEST(EndcapTest, CaptureStaysHighWithEndcaps) {
  Rng rng(22);
  DetectorConfig cfg = endcap_config();
  Event e = generate_event(cfg, rng);
  std::size_t captured = 0, total = 0;
  for (const TruthParticle& p : e.particles)
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i) {
      ++total;
      if (e.graph.find_edge(p.hits[i], p.hits[i + 1]) != Graph::kNoEdge)
        ++captured;
    }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(captured) / total, 0.75);
}

TEST(DetectorFeaturesTest, DuplicateHitsProduced) {
  Rng rng(23);
  DetectorConfig cfg = tiny_config();
  cfg.duplicate_hit_probability = 0.5;
  Event e = generate_event(cfg, rng);
  // With 50% duplication some particle must own two hits on one surface.
  bool found_duplicate = false;
  for (const TruthParticle& p : e.particles)
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i)
      if (e.hits[p.hits[i]].layer == e.hits[p.hits[i + 1]].layer)
        found_duplicate = true;
  EXPECT_TRUE(found_duplicate);
}

TEST(DetectorFeaturesTest, DisplacedTracksWidenZ0) {
  DetectorConfig cfg = tiny_config();
  cfg.mean_particles = 400.0;
  cfg.displaced_fraction = 0.5;
  cfg.displaced_z0_sigma = 500.0;
  Rng rng(24);
  Event e = generate_event(cfg, rng);
  std::size_t wide = 0;
  for (const TruthParticle& p : e.particles)
    wide += (std::fabs(p.z0) > 150.0f);
  // Prompt σ=30 essentially never exceeds 150; displaced σ=500 often does.
  EXPECT_GT(wide, e.particles.size() / 8);
}

TEST(DetectorFeaturesTest, DisplacedTracksLoseCaptureAsExpected) {
  DetectorConfig cfg = tiny_config();
  cfg.mean_particles = 150.0;
  cfg.displaced_fraction = 0.5;
  Rng rng(25);
  Event e = generate_event(cfg, rng);
  std::size_t cap_prompt = 0, tot_prompt = 0, cap_disp = 0, tot_disp = 0;
  for (const TruthParticle& p : e.particles) {
    const bool displaced = std::fabs(p.z0) > 100.0f;
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i) {
      const bool hit =
          e.graph.find_edge(p.hits[i], p.hits[i + 1]) != Graph::kNoEdge;
      if (displaced) {
        ++tot_disp;
        cap_disp += hit;
      } else {
        ++tot_prompt;
        cap_prompt += hit;
      }
    }
  }
  ASSERT_GT(tot_prompt, 0u);
  if (tot_disp > 0) {
    // Graph construction points at the beam spot, so displaced tracks are
    // captured strictly less often — the documented physics trade-off.
    EXPECT_LT(static_cast<double>(cap_disp) / tot_disp,
              static_cast<double>(cap_prompt) / tot_prompt);
  }
}

// ---------- dataset ----------

TEST(DatasetTest, SplitSizes) {
  DetectorConfig cfg = tiny_config();
  Dataset ds = generate_dataset("t", cfg, 4, 2, 1, 42);
  EXPECT_EQ(ds.train.size(), 4u);
  EXPECT_EQ(ds.val.size(), 2u);
  EXPECT_EQ(ds.test.size(), 1u);
  EXPECT_EQ(ds.total_events(), 7u);
  EXPECT_GT(ds.avg_vertices(), 0.0);
  EXPECT_GT(ds.avg_edges(), 0.0);
}

TEST(DatasetTest, EventsAreDistinct) {
  DetectorConfig cfg = tiny_config();
  Dataset ds = generate_dataset("t", cfg, 2, 0, 0, 43);
  // Different RNG streams → different events (overwhelmingly likely).
  EXPECT_NE(ds.train[0].hits.size() * 1000 + ds.train[0].num_edges(),
            ds.train[1].hits.size() * 1000 + ds.train[1].num_edges());
}

TEST(DatasetTest, DeterministicGivenSeed) {
  DetectorConfig cfg = tiny_config();
  Dataset a = generate_dataset("t", cfg, 2, 1, 0, 44);
  Dataset b = generate_dataset("t", cfg, 2, 1, 0, 44);
  EXPECT_EQ(a.train[1].node_features, b.train[1].node_features);
  EXPECT_EQ(a.val[0].edge_labels, b.val[0].edge_labels);
}

// ---------- feature oracle ----------

// build_features as it was first written: r, φ and η recomputed through
// Hit::r(), phi() and eta() for both endpoints of every edge.
void reference_features(const Event& event, std::size_t node_dim,
                        std::size_t edge_dim, const FeatureScales& scales,
                        std::size_t num_layers, Matrix& node, Matrix& edge) {
  const float pi = static_cast<float>(M_PI);
  auto wrap = [pi](float d) {
    while (d > pi) d -= 2.0f * pi;
    while (d <= -pi) d += 2.0f * pi;
    return d;
  };
  const float inv_pi = 1.0f / pi;
  const float inv_r_max = 1.0f / scales.r_max;
  const float inv_z_max = 1.0f / scales.z_max;
  const float inv_eta_max = 1.0f / scales.eta_max;
  node = Matrix(event.hits.size(), node_dim);
  for (std::size_t i = 0; i < event.hits.size(); ++i) {
    const Hit& h = event.hits[i];
    const float r = h.r(), phi = h.phi(), eta = h.eta();
    const float pool[14] = {
        r * inv_r_max, phi * inv_pi, h.z * inv_z_max, eta * inv_eta_max,
        std::cos(phi), std::sin(phi),
        static_cast<float>(h.layer) /
            static_cast<float>(num_layers > 1 ? num_layers - 1 : 1),
        h.x * inv_r_max, h.y * inv_r_max, r > 0.0f ? h.z / r : 0.0f,
        std::tanh(eta), (r * inv_r_max) * (r * inv_r_max),
        std::cos(2.0f * phi), std::sin(2.0f * phi)};
    for (std::size_t j = 0; j < node_dim; ++j) node(i, j) = pool[j];
  }
  edge = Matrix(event.graph.num_edges(), edge_dim);
  for (std::size_t e = 0; e < event.graph.num_edges(); ++e) {
    const Hit& a = event.hits[event.graph.edge(e).src];
    const Hit& b = event.hits[event.graph.edge(e).dst];
    const float dr = b.r() - a.r();
    const float dphi = wrap(b.phi() - a.phi());
    const float dz = b.z - a.z;
    const float deta = b.eta() - a.eta();
    const float pool[8] = {
        dr * inv_r_max, dphi * inv_pi, dz * inv_z_max, deta * inv_eta_max,
        std::sqrt(deta * deta + dphi * dphi), 0.5f * (a.r() + b.r()) * inv_r_max,
        std::fabs(dr) > 1e-3f ? dz / dr : 0.0f,
        std::fabs(dr) > 1e-3f ? dphi / (dr * inv_r_max) : 0.0f};
    for (std::size_t j = 0; j < edge_dim; ++j) edge(e, j) = pool[j];
  }
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::size_t layer_count(const Event& e) {
  std::size_t n = 1;
  for (const Hit& h : e.hits) n = std::max<std::size_t>(n, h.layer + 1);
  return n;
}

// build_features must equal the reference byte for byte.
void expect_features_match_reference(Event event, const FeatureScales& scales) {
  const std::size_t nd = event.node_features.cols();
  const std::size_t ed = event.edge_features.cols();
  ASSERT_GT(event.graph.num_edges(), 0u);
  build_features(event, nd, ed, scales, layer_count(event));
  Matrix node, edge;
  reference_features(event, nd, ed, scales, layer_count(event), node, edge);
  EXPECT_TRUE(same_bytes(event.node_features, node));
  EXPECT_TRUE(same_bytes(event.edge_features, edge));
}

FeatureScales test_scales() {
  FeatureScales s;
  s.r_max = 1013.5f;
  s.z_max = 1977.25f;
  s.eta_max = 4.5f;
  return s;
}

TEST(FeatureOracle, Ex3EventMatchesPerEndpointFormula) {
  Rng rng(71);
  const Event e = generate_event(ex3_spec(0.02).detector, rng);
  EXPECT_EQ(e.node_features.cols(), 6u);
  EXPECT_EQ(e.edge_features.cols(), 2u);
  expect_features_match_reference(e, test_scales());
}

TEST(FeatureOracle, CtdEventUsesEveryPoolEntry) {
  Rng rng(72);
  const Event e = generate_event(ctd_spec(0.002).detector, rng);
  EXPECT_EQ(e.node_features.cols(), 14u);
  EXPECT_EQ(e.edge_features.cols(), 8u);
  expect_features_match_reference(e, test_scales());
}

TEST(FeatureOracle, RebuiltGraphMatchesPerEndpointFormula) {
  Rng rng(73);
  DetectorConfig cfg = ctd_spec(0.002).detector;
  Event e = generate_event(cfg, rng);
  // Scaled positions as the embedding: a new edge set over the same hits.
  Matrix pos(e.hits.size(), 3);
  for (std::size_t i = 0; i < e.hits.size(); ++i) {
    pos(i, 0) = e.hits[i].x / 100.0f;
    pos(i, 1) = e.hits[i].y / 100.0f;
    pos(i, 2) = e.hits[i].z / 100.0f;
  }
  FrnnConfig frnn;
  frnn.radius = 2.0f;
  rebuild_event_graph(e, pos, frnn, 8, test_scales());
  ASSERT_GT(e.graph.num_edges(), 0u);
  Matrix node, edge;
  reference_features(e, 14, 8, test_scales(), layer_count(e), node, edge);
  EXPECT_TRUE(same_bytes(e.node_features, node));
  EXPECT_TRUE(same_bytes(e.edge_features, edge));
}

// ---------- presets ----------

TEST(PresetsTest, FeatureDimsMatchTableI) {
  const DatasetSpec ex3 = ex3_spec(0.02);
  EXPECT_EQ(ex3.detector.node_feature_dim, 6u);
  EXPECT_EQ(ex3.detector.edge_feature_dim, 2u);
  EXPECT_EQ(ex3.mlp_hidden_layers, 2u);
  const DatasetSpec ctd = ctd_spec(0.002);
  EXPECT_EQ(ctd.detector.node_feature_dim, 14u);
  EXPECT_EQ(ctd.detector.edge_feature_dim, 8u);
  EXPECT_EQ(ctd.mlp_hidden_layers, 3u);
}

TEST(PresetsTest, CtdDenserThanEx3) {
  // At matched (small) scales, CTD-like events must have a higher
  // edges-per-vertex ratio than Ex3-like — the structural property that
  // drives the paper's memory argument.
  Rng rng(10);
  DetectorConfig ex3 = ex3_spec(0.05).detector;
  DetectorConfig ctd = ctd_spec(0.05 / 16.0 * 26.0 / 16.0).detector;
  // Normalise particle counts to similar magnitude for the ratio check.
  ctd.mean_particles = ex3.mean_particles;
  Rng r1(11), r2(12);
  Event e_ex3 = generate_event(ex3, r1);
  Event e_ctd = generate_event(ctd, r2);
  const double ratio_ex3 =
      static_cast<double>(e_ex3.num_edges()) / e_ex3.num_hits();
  const double ratio_ctd =
      static_cast<double>(e_ctd.num_edges()) / e_ctd.num_hits();
  EXPECT_GT(ratio_ctd, ratio_ex3);
}

}  // namespace
}  // namespace trkx

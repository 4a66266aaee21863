#include <gtest/gtest.h>

#include <cmath>

#include "detector/helix.hpp"
#include "pipeline/gnn_train.hpp"
#include "pipeline/track_fit.hpp"

namespace trkx {
namespace {

/// Build an event holding one ideal (noise-free) helix track.
Event ideal_track_event(const ParticleState& state, double b_field,
                        const std::vector<double>& radii) {
  Event event;
  Helix helix(state, b_field);
  TruthParticle truth;
  truth.pt = static_cast<float>(state.pt);
  truth.phi0 = static_cast<float>(state.phi0);
  truth.eta = static_cast<float>(state.eta);
  truth.z0 = static_cast<float>(state.z0);
  truth.charge = state.charge;
  for (std::size_t l = 0; l < radii.size(); ++l) {
    const auto p = helix.intersect_layer(radii[l]);
    if (!p) break;
    Hit h;
    h.x = static_cast<float>(p->x);
    h.y = static_cast<float>(p->y);
    h.z = static_cast<float>(p->z);
    h.layer = static_cast<std::uint32_t>(l);
    h.particle = 0;
    truth.hits.push_back(static_cast<std::uint32_t>(event.hits.size()));
    event.hits.push_back(h);
  }
  event.particles.push_back(truth);
  event.graph = Graph(event.hits.size(), {});
  return event;
}

TrackCandidate candidate_of_all_hits(const Event& e) {
  TrackCandidate c;
  for (std::uint32_t i = 0; i < e.hits.size(); ++i) c.hits.push_back(i);
  c.matched_particle = 0;
  c.majority_fraction = 1.0;
  return c;
}

const std::vector<double> kRadii{32, 72, 116, 172, 260, 360, 500};

class FitParams
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(FitParams, RecoversHelixParameters) {
  auto [pt, eta, charge] = GetParam();
  ParticleState s;
  s.pt = pt;
  s.phi0 = 0.9;
  s.eta = eta;
  s.z0 = 12.0;
  s.charge = charge;
  Event e = ideal_track_event(s, 2.0, kRadii);
  ASSERT_GE(e.hits.size(), 3u);
  const auto fit = fit_track(e, candidate_of_all_hits(e), 2.0);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->pt, pt, pt * 0.02);
  EXPECT_NEAR(fit->phi0, 0.9, 0.02);
  EXPECT_NEAR(fit->eta, eta, 0.03);
  EXPECT_NEAR(fit->z0, 12.0, 1.0);
  EXPECT_EQ(fit->charge, charge);
  EXPECT_LT(fit->circle_chi2, 1e-3f);
  EXPECT_LT(fit->line_chi2, 1e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FitParams,
    ::testing::Values(std::make_tuple(0.6, 0.0, 1),
                      std::make_tuple(1.0, 1.2, -1),
                      std::make_tuple(2.5, -0.8, 1),
                      std::make_tuple(5.0, 2.0, -1),
                      std::make_tuple(0.8, -1.5, -1)));

TEST(TrackFitTest, TooFewHitsRejected) {
  ParticleState s;
  Event e = ideal_track_event(s, 2.0, {32, 72});
  TrackCandidate c = candidate_of_all_hits(e);
  EXPECT_FALSE(fit_track(e, c, 2.0).has_value());
}

TEST(TrackFitTest, SmearedHitsStillCloseAndChi2Grows) {
  ParticleState s;
  s.pt = 1.5;
  s.phi0 = -1.1;
  s.eta = 0.5;
  s.charge = 1;
  Event e = ideal_track_event(s, 2.0, kRadii);
  Rng rng(3);
  for (Hit& h : e.hits) {
    h.x += static_cast<float>(rng.normal(0.0, 0.5));
    h.y += static_cast<float>(rng.normal(0.0, 0.5));
    h.z += static_cast<float>(rng.normal(0.0, 1.0));
  }
  const auto fit = fit_track(e, candidate_of_all_hits(e), 2.0);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->pt, 1.5, 0.25);
  EXPECT_GT(fit->circle_chi2, 1e-4f);
}

TEST(TrackFitTest, EvaluateFitsAggregates) {
  Rng rng(4);
  // Build an event with several ideal tracks and fit them all.
  Event event;
  std::vector<TrackCandidate> candidates;
  for (int i = 0; i < 5; ++i) {
    ParticleState s;
    s.pt = 0.7 + 0.5 * i;
    s.phi0 = rng.uniform(-3.0f, 3.0f);
    s.eta = rng.uniform(-1.5f, 1.5f);
    s.z0 = rng.normal(0.0, 20.0);
    s.charge = rng.bernoulli(0.5) ? 1 : -1;
    Event single = ideal_track_event(s, 2.0, kRadii);
    TrackCandidate c;
    const auto base = static_cast<std::uint32_t>(event.hits.size());
    for (std::uint32_t h = 0; h < single.hits.size(); ++h) {
      Hit hit = single.hits[h];
      hit.particle = i;
      event.hits.push_back(hit);
      c.hits.push_back(base + h);
    }
    TruthParticle t = single.particles[0];
    for (auto& hh : t.hits) hh += base;
    event.particles.push_back(t);
    c.matched_particle = i;
    candidates.push_back(c);
  }
  event.graph = Graph(event.hits.size(), {});
  const FitResolution res = evaluate_fits(event, candidates, 2.0);
  EXPECT_EQ(res.fitted, 5u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_LT(std::fabs(res.pt_bias), 0.05);
  EXPECT_LT(res.pt_resolution, 0.05);
  EXPECT_EQ(res.charge_correct_fraction, 1.0);
  EXPECT_LT(res.z0_resolution, 2.0);
}

TEST(TrackFitTest, UnmatchedCandidatesIgnored) {
  ParticleState s;
  Event e = ideal_track_event(s, 2.0, kRadii);
  TrackCandidate c = candidate_of_all_hits(e);
  c.matched_particle = -1;
  const FitResolution res = evaluate_fits(e, {c}, 2.0);
  EXPECT_EQ(res.fitted, 0u);
}

TEST(TrackFitTest, MemoryBudgetSkipLogic) {
  // fits_memory_budget admits an event exactly when its estimated
  // footprint is within the byte budget; 0 means no budget.
  DetectorConfig cfg;
  cfg.mean_particles = 15.0;
  Rng rng(5);
  Event e = generate_event(cfg, rng);
  IgnnConfig gnn;
  gnn.node_input_dim = cfg.node_feature_dim;
  gnn.edge_input_dim = cfg.edge_feature_dim;
  gnn.hidden_dim = 64;
  gnn.num_layers = 8;
  GnnTrainConfig tc;
  EXPECT_TRUE(fits_memory_budget(tc, gnn, e));
  const std::size_t need = full_graph_memory_estimate(gnn, e);
  tc.memory_budget_bytes = need - 1;
  EXPECT_FALSE(fits_memory_budget(tc, gnn, e));
  tc.memory_budget_bytes = 1;  // nothing fits a 1-byte GPU
  EXPECT_FALSE(fits_memory_budget(tc, gnn, e));
  tc.memory_budget_bytes = need;
  EXPECT_TRUE(fits_memory_budget(tc, gnn, e));
}

}  // namespace
}  // namespace trkx

#include "detector/event.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace trkx {

float Hit::r() const { return std::hypot(x, y); }
float Hit::phi() const { return std::atan2(y, x); }

float Hit::eta() const {
  const float rr = r();
  if (rr == 0.0f) return 0.0f;
  const float theta = std::atan2(rr, z);
  // NOLINT(trkx-exp-log): rr > 0 above, so theta ∈ (0, π) and tan(θ/2) > 0
  return -std::log(std::tan(theta / 2.0f));
}

double Event::positive_edge_fraction() const {
  if (edge_labels.empty()) return 0.0;
  std::size_t pos = 0;
  for (char l : edge_labels) pos += (l != 0);
  return static_cast<double>(pos) / static_cast<double>(edge_labels.size());
}

namespace {

/// Wrap an angle difference into (-π, π].
float wrap_angle(float d) {
  while (d > static_cast<float>(M_PI)) d -= 2.0f * static_cast<float>(M_PI);
  while (d <= -static_cast<float>(M_PI)) d += 2.0f * static_cast<float>(M_PI);
  return d;
}

}  // namespace

void build_features(Event& event, std::size_t node_dim, std::size_t edge_dim,
                    const FeatureScales& scales, std::size_t num_layers) {
  TRKX_CHECK(node_dim > 0 && edge_dim > 0);
  TRKX_CHECK_MSG(scales.r_max > 0.0f && scales.z_max > 0.0f &&
                     scales.eta_max > 0.0f,
                 "feature scales must be positive");
  const std::size_t n = event.hits.size();
  const std::size_t m = event.graph.num_edges();
  const float inv_pi = 1.0f / static_cast<float>(M_PI);
  const float inv_r_max = 1.0f / scales.r_max;
  const float inv_z_max = 1.0f / scales.z_max;
  const float inv_eta_max = 1.0f / scales.eta_max;

  // r, φ and η once per hit; the edge loop reads them for both endpoints.
  std::vector<float> hit_r(n), hit_phi(n), hit_eta(n);
  event.node_features.resize(n, node_dim);
  for (std::size_t i = 0; i < n; ++i) {
    const Hit& h = event.hits[i];
    const float r = h.r(), phi = h.phi(), eta = h.eta();
    hit_r[i] = r;
    hit_phi[i] = phi;
    hit_eta[i] = eta;
    // Candidate pool; the first node_dim entries are used.
    const float pool[14] = {
        r * inv_r_max,
        phi * inv_pi,
        h.z * inv_z_max,
        eta * inv_eta_max,
        std::cos(phi),
        std::sin(phi),
        static_cast<float>(h.layer) /
            static_cast<float>(num_layers > 1 ? num_layers - 1 : 1),
        h.x * inv_r_max,
        h.y * inv_r_max,
        r > 0.0f ? h.z / r : 0.0f,
        std::tanh(eta),
        (r * inv_r_max) * (r * inv_r_max),
        std::cos(2.0f * phi),
        std::sin(2.0f * phi),
    };
    TRKX_CHECK_MSG(node_dim <= 14, "node_dim > 14 not supported");
    for (std::size_t j = 0; j < node_dim; ++j)
      event.node_features(i, j) = pool[j];
  }

  event.edge_features.resize(m, edge_dim);
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint32_t a = event.graph.edge(e).src;
    const std::uint32_t b = event.graph.edge(e).dst;
    const float dr = hit_r[b] - hit_r[a];
    const float dphi = wrap_angle(hit_phi[b] - hit_phi[a]);
    const float dz = event.hits[b].z - event.hits[a].z;
    const float deta = hit_eta[b] - hit_eta[a];
    const float dR = std::sqrt(deta * deta + dphi * dphi);
    const float mid_r = 0.5f * (hit_r[a] + hit_r[b]);
    const float pool[8] = {
        dr * inv_r_max,
        dphi * inv_pi,
        dz * inv_z_max,
        deta * inv_eta_max,
        dR,
        mid_r * inv_r_max,
        std::fabs(dr) > 1e-3f ? dz / dr : 0.0f,          // slope dz/dr
        std::fabs(dr) > 1e-3f ? dphi / (dr * inv_r_max) : 0.0f,  // curvature proxy
    };
    TRKX_CHECK_MSG(edge_dim <= 8, "edge_dim > 8 not supported");
    for (std::size_t j = 0; j < edge_dim; ++j)
      event.edge_features(e, j) = pool[j];
  }
}

}  // namespace trkx

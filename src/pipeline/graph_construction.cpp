#include "pipeline/graph_construction.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace trkx {

namespace {

float sq_dist(const Matrix& pts, std::size_t a, std::size_t b) {
  float d2 = 0.0f;
  for (std::size_t j = 0; j < pts.cols(); ++j) {
    const float d = pts(a, j) - pts(b, j);
    d2 += d * d;
  }
  return d2;
}

/// Orient a close pair into a directed edge (inner → outer).
Edge orient(std::uint32_t i, std::uint32_t j,
            const std::vector<std::uint32_t>& layers) {
  if (!layers.empty()) {
    if (layers[i] < layers[j]) return {i, j};
    if (layers[j] < layers[i]) return {j, i};
  }
  return i < j ? Edge{i, j} : Edge{j, i};
}

Graph finalize(std::size_t n, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return Graph(n, std::move(edges));
}

/// A pair within the radius: point indices lo < hi and their d².
struct NearPair {
  std::uint32_t lo;
  std::uint32_t hi;
  float d2;
};

}  // namespace

Graph build_frnn_graph(const Matrix& points, const FrnnConfig& config,
                       const std::vector<std::uint32_t>& layers) {
  TRKX_CHECK(config.radius > 0.0f);
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  TRKX_CHECK_MSG(d <= 8, "FRNN supports up to 8 dims");
  TRKX_CHECK(layers.empty() || layers.size() == n);
  const float r2 = config.radius * config.radius;

  // Cell coordinates, packed into one 64-bit key per point with dimension
  // 0 in the lowest field. Cells are 2^-16 wider than the radius, so two
  // points that pass the float test d² <= r² lie at most one cell apart
  // along every dimension, whatever the rounding. Each dimension keeps a
  // window of 2^bits - 2 cells centred on its median cell: cells outside
  // it merge into the window's edge cells (slower, still exact), and NaN
  // joins the low edge. The window leaves each field's lowest and highest
  // value free, so a neighbouring cell's key is this key plus or minus one
  // field unit, with no carry into the next field.
  const std::size_t fields = std::max(d, std::size_t{1});
  const std::size_t bits = std::min<std::size_t>(21, 64 / fields);
  const double last = static_cast<double>((std::uint64_t{1} << bits) - 3);
  const double centre = std::floor(last / 2.0);
  const double inv_cell =
      1.0 / (static_cast<double>(config.radius) * (1.0 + 0x1p-16));
  std::vector<std::uint64_t> key(n, 0);
  std::vector<double> scaled(n), finite;
  for (std::size_t k = 0; k < d; ++k) {
    finite.clear();
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = static_cast<double>(points(i, k)) * inv_cell;
      if (std::isfinite(scaled[i])) finite.push_back(scaled[i]);
    }
    double shift = centre;
    if (!finite.empty()) {
      const auto mid = finite.begin() + static_cast<std::ptrdiff_t>(
                                            finite.size() / 2);
      std::nth_element(finite.begin(), mid, finite.end());
      shift -= std::floor(*mid);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double g = scaled[i] + shift;
      const double f = g >= 0.0 ? std::min(g, last) : 0.0;  // NaN → 0
      key[i] |= (static_cast<std::uint64_t>(f) + 1) << (bits * k);
    }
  }

  // Points sorted by key: a CSR of occupied cells over an SoA copy of the
  // coordinates, so the points of consecutive cells are one block.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = {key[i], static_cast<std::uint32_t>(i)};
  std::sort(order.begin(), order.end());
  std::vector<std::uint64_t> cell_key;
  std::vector<std::size_t> cell_start;
  std::vector<std::uint32_t> id(n);
  std::vector<float> coord(d * n);  // dimension-major, in sorted order
  for (std::size_t p = 0; p < n; ++p) {
    const auto [k, i] = order[p];
    if (p == 0 || k != cell_key.back()) {
      cell_key.push_back(k);
      cell_start.push_back(p);
    }
    id[p] = i;
    for (std::size_t j = 0; j < d; ++j) coord[j * n + p] = points(i, j);
  }
  cell_start.push_back(n);
  const std::size_t num_cells = cell_key.size();

  // Half stencil: rows of three consecutive cells along dimension 0, one
  // per offset o ∈ {-1, 0, 1} in each other dimension whose packed offset
  // is positive; the mirrored row sees the same cell pairs from the other
  // end. The own row (o = 0) is the cell itself and the next cell.
  std::vector<std::uint64_t> row_first;  // key of a row's first cell − key
  std::size_t offsets = 1;
  for (std::size_t k = 1; k < fields; ++k) offsets *= 3;
  for (std::size_t t = 0; t < offsets; ++t) {
    std::int64_t delta = 0;
    for (std::size_t k = 1, u = t; k < fields; ++k, u /= 3)
      delta += (static_cast<std::int64_t>(u % 3) - 1) *
               (std::int64_t{1} << (bits * k));
    if (delta > 0) row_first.push_back(static_cast<std::uint64_t>(delta) - 1);
  }

  std::vector<NearPair> pairs(n);
  std::size_t num_pairs = 0;
  // Tests sorted point p against the contiguous block [lo, hi). d² sums
  // the dimensions in order from 0, as the brute force does, so it is
  // bit-identical. Every candidate is written; only those within the
  // radius advance the count.
  auto test_block = [&](std::size_t p, std::size_t lo, std::size_t hi) {
    if (pairs.size() < num_pairs + (hi - lo))
      pairs.resize(std::max(2 * pairs.size(), num_pairs + (hi - lo)));
    const std::uint32_t u = id[p];
    for (std::size_t j = lo; j < hi; ++j) {
      float d2 = 0.0f;
      for (std::size_t k = 0; k < d; ++k) {
        const float t = coord[k * n + j] - coord[k * n + p];
        d2 += t * t;
      }
      const std::uint32_t v = id[j];
      pairs[num_pairs] = {std::min(u, v), std::max(u, v), d2};
      num_pairs += d2 <= r2;
    }
  };
  // Each row's first candidate cell only moves forward as the cell keys
  // grow: a two-pointer walk over the sorted keys, no lookups.
  std::vector<std::size_t> row_cell(row_first.size(), 0);
  for (std::size_t c = 0; c < num_cells; ++c) {
    const std::size_t begin = cell_start[c], end = cell_start[c + 1];
    const std::size_t own_end =
        c + 1 < num_cells && cell_key[c + 1] == cell_key[c] + 1
            ? cell_start[c + 2]
            : end;
    for (std::size_t p = begin; p < end; ++p) test_block(p, p + 1, own_end);
    for (std::size_t r = 0; r < row_first.size(); ++r) {
      const std::uint64_t first = cell_key[c] + row_first[r];
      std::size_t a = row_cell[r];
      while (a < num_cells && cell_key[a] < first) ++a;
      row_cell[r] = a;
      std::size_t b = a;
      while (b < num_cells && cell_key[b] <= first + 2) ++b;
      if (a == b) continue;
      for (std::size_t p = begin; p < end; ++p)
        test_block(p, cell_start[a], cell_start[b]);
    }
  }

  // Group the pairs by lower index i; keep, for each i, the max_neighbors
  // smallest by (d², j), in ascending j.
  std::vector<std::size_t> group(n + 1, 0);
  for (std::size_t q = 0; q < num_pairs; ++q) ++group[pairs[q].lo + 1];
  for (std::size_t i = 0; i < n; ++i) group[i + 1] += group[i];
  std::vector<std::pair<float, std::uint32_t>> near(num_pairs);
  std::vector<std::size_t> kept_end(group.begin() + 1, group.end());
  {
    std::vector<std::size_t> fill(group.begin(), group.end() - 1);
    for (std::size_t q = 0; q < num_pairs; ++q)
      near[fill[pairs[q].lo]++] = {pairs[q].d2, pairs[q].hi};
  }
  const auto at = [&](std::size_t q) {
    return near.begin() + static_cast<std::ptrdiff_t>(q);
  };
  std::vector<std::size_t> src_start(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (kept_end[i] - group[i] > config.max_neighbors) {
      kept_end[i] = group[i] + config.max_neighbors;
      std::nth_element(at(group[i]), at(kept_end[i]), at(group[i + 1]));
    }
    std::sort(at(group[i]), at(kept_end[i]),
              [](const auto& x, const auto& y) { return x.second < y.second; });
    for (std::size_t q = group[i]; q < kept_end[i]; ++q)
      ++src_start[orient(static_cast<std::uint32_t>(i), near[q].second,
                         layers).src + 1];
  }
  for (std::size_t i = 0; i < n; ++i) src_start[i + 1] += src_start[i];

  // Each unordered pair was tested once, so there are no duplicates, and
  // filling the sources' buckets in (i, j) order leaves every bucket sorted
  // by destination: edge (s, i) with i < s arrives from i's group, before
  // s's own group brings its (s, j) with j > s. The result is finalize()'s
  // order without a sort.
  std::vector<Edge> edges(src_start[n]);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t q = group[i]; q < kept_end[i]; ++q) {
      const Edge e =
          orient(static_cast<std::uint32_t>(i), near[q].second, layers);
      edges[src_start[e.src]++] = e;
    }
  return Graph(n, std::move(edges));
}

Graph build_frnn_graph_bruteforce(const Matrix& points,
                                  const FrnnConfig& config,
                                  const std::vector<std::uint32_t>& layers) {
  const std::size_t n = points.rows();
  TRKX_CHECK(layers.empty() || layers.size() == n);
  const float r2 = config.radius * config.radius;
  std::vector<Edge> edges;
  std::vector<std::pair<float, std::uint32_t>> near;
  for (std::size_t i = 0; i < n; ++i) {
    near.clear();
    for (std::size_t j = i + 1; j < n; ++j) {
      const float d2 = sq_dist(points, i, j);
      if (d2 <= r2) near.emplace_back(d2, static_cast<std::uint32_t>(j));
    }
    if (near.size() > config.max_neighbors) {
      std::nth_element(near.begin(),
                       near.begin() + static_cast<std::ptrdiff_t>(
                                          config.max_neighbors),
                       near.end());
      near.resize(config.max_neighbors);
    }
    for (const auto& [d2, j] : near)
      edges.push_back(orient(static_cast<std::uint32_t>(i), j, layers));
  }
  return finalize(n, std::move(edges));
}

void rebuild_event_graph(Event& event, const Matrix& embedded,
                         const FrnnConfig& config,
                         std::size_t edge_feature_dim,
                         const FeatureScales& scales) {
  TRKX_TRACE_SPAN("graph_construction", "pipeline");
  metrics().counter("pipeline.graph_construction.events").add(1);
  TRKX_CHECK(embedded.rows() == event.hits.size());
  std::vector<std::uint32_t> layers(event.hits.size());
  for (std::size_t i = 0; i < event.hits.size(); ++i)
    layers[i] = event.hits[i].layer;
  event.graph = build_frnn_graph(embedded, config, layers);

  // Relabel edges against truth.
  event.edge_labels.assign(event.graph.num_edges(), 0);
  for (const TruthParticle& p : event.particles) {
    for (std::size_t i = 0; i + 1 < p.hits.size(); ++i) {
      const std::uint32_t e = event.graph.find_edge(p.hits[i], p.hits[i + 1]);
      if (e != Graph::kNoEdge) event.edge_labels[e] = 1;
    }
  }
  // Rebuild edge features for the new edge set. Node features are rebuilt
  // too, with `scales` (the pipeline's r_max and z_max, taken from its
  // training hits), which need not equal the ones the generator used.
  std::size_t num_layers = 0;
  for (const Hit& h : event.hits)
    num_layers = std::max<std::size_t>(num_layers, h.layer + 1);
  build_features(event, event.node_features.cols(), edge_feature_dim, scales,
                 std::max<std::size_t>(num_layers, 1));
}

}  // namespace trkx

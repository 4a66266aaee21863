#include "pipeline/evaluation.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace trkx {

ScoredEdges score_events(const GnnModel& model,
                         const std::vector<Event>& events) {
  ScoredEdges out;
  for (const Event& event : events) {
    if (event.graph.num_edges() == 0) continue;
    const auto scores = model.gnn->predict(event.node_features,
                                           event.edge_features, event.graph);
    for (std::size_t e = 0; e < scores.size(); ++e)
      out.add(scores[e], event.edge_labels[e] != 0);
  }
  return out;
}

double roc_auc(const ScoredEdges& edges) {
  TRKX_CHECK(edges.scores.size() == edges.labels.size());
  const std::size_t n = edges.size();
  std::size_t pos = 0;
  for (char l : edges.labels) pos += (l != 0);
  const std::size_t neg = n - pos;
  if (pos == 0 || neg == 0) return 0.5;

  // Rank scores ascending; average ranks over ties.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return edges.scores[a] < edges.scores[b];
  });
  double pos_rank_sum = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && edges.scores[order[j]] == edges.scores[order[i]]) ++j;
    // Ranks are 1-based; ties share the mean rank of their block.
    const double mean_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (std::size_t k = i; k < j; ++k)
      if (edges.labels[order[k]]) pos_rank_sum += mean_rank;
    i = j;
  }
  const double u = pos_rank_sum -
                   static_cast<double>(pos) * (static_cast<double>(pos) + 1.0) /
                       2.0;
  // NOLINT(trkx-div-guard): pos, neg > 0 after the early return above
  return u / (static_cast<double>(pos) * static_cast<double>(neg));
}

std::vector<ThresholdPoint> threshold_sweep(
    const ScoredEdges& edges, const std::vector<float>& thresholds) {
  TRKX_CHECK(std::is_sorted(thresholds.begin(), thresholds.end()));
  const std::size_t n = edges.size();
  std::size_t total_pos = 0;
  for (char l : edges.labels) total_pos += (l != 0);

  // Sort edges by score ascending; walk thresholds upward, moving edges
  // below the threshold from "predicted positive" to "predicted negative".
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return edges.scores[a] < edges.scores[b];
  });

  std::vector<ThresholdPoint> out;
  out.reserve(thresholds.size());
  std::size_t below = 0;       // edges with score < threshold
  std::size_t below_pos = 0;   // of those, true edges
  for (float t : thresholds) {
    while (below < n && edges.scores[order[below]] < t) {
      below_pos += (edges.labels[order[below]] != 0);
      ++below;
    }
    ThresholdPoint p;
    p.threshold = t;
    p.metrics.true_positives = total_pos - below_pos;
    p.metrics.false_negatives = below_pos;
    p.metrics.false_positives = (n - below) - (total_pos - below_pos);
    p.metrics.true_negatives = below - below_pos;
    out.push_back(p);
  }
  return out;
}

std::vector<float> uniform_thresholds(std::size_t n) {
  TRKX_CHECK(n > 0);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<float>(i + 1) / static_cast<float>(n + 1);
  return out;
}

ThresholdPoint best_f1_point(const ScoredEdges& edges,
                             const std::vector<float>& thresholds) {
  const auto sweep = threshold_sweep(edges, thresholds);
  TRKX_CHECK(!sweep.empty());
  const auto it = std::max_element(
      sweep.begin(), sweep.end(), [](const auto& a, const auto& b) {
        return a.metrics.f1() < b.metrics.f1();
      });
  return *it;
}

}  // namespace trkx

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

}  // namespace trkx

#pragma once

#include <cstddef>
#include <vector>

#include "detector/generator.hpp"
#include "pipeline/gnn_train.hpp"

namespace trkx {

/// Scored edges pooled across events: (score, label) pairs.
struct ScoredEdges {
  std::vector<float> scores;
  std::vector<char> labels;

  std::size_t size() const { return scores.size(); }
  void add(float score, bool label) {
    scores.push_back(score);
    labels.push_back(label ? 1 : 0);
  }
};

/// Run full-graph GNN inference over `events` and pool all edge scores.
ScoredEdges score_events(const GnnModel& model,
                         const std::vector<Event>& events);

/// Area under the ROC curve via the rank-sum (Mann–Whitney) statistic.
/// Returns 0.5 when either class is empty. Exact (ties averaged).
double roc_auc(const ScoredEdges& edges);

}  // namespace trkx

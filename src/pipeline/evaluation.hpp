#pragma once

#include <cstddef>
#include <vector>

#include "detector/generator.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/stats.hpp"

namespace trkx {

/// One point of a score-threshold sweep.
struct ThresholdPoint {
  float threshold = 0.0f;
  BinaryMetrics metrics;
};

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

/// Precision/recall/etc. at each threshold in `thresholds` (ascending).
/// Computed in one sorted pass over the edges.
std::vector<ThresholdPoint> threshold_sweep(
    const ScoredEdges& edges, const std::vector<float>& thresholds);

/// Evenly spaced thresholds in (0, 1): {1/(n+1), ..., n/(n+1)}.
std::vector<float> uniform_thresholds(std::size_t n);

/// The threshold (from `thresholds`) maximising F1.
ThresholdPoint best_f1_point(const ScoredEdges& edges,
                             const std::vector<float>& thresholds);

}  // namespace trkx

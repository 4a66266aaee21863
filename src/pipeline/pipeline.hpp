#pragma once

#include <memory>
#include <optional>

#include "pipeline/embedding.hpp"
#include "pipeline/filter.hpp"
#include "pipeline/gnn_train.hpp"
#include "pipeline/graph_construction.hpp"
#include "pipeline/track_building.hpp"
#include "pipeline/track_fit.hpp"
#include "util/annotations.hpp"

namespace trkx {

/// The five inference stages, in execution order.
enum class Stage : int { kEmbed = 0, kFilter = 1, kGnn = 2, kBuild = 3,
                         kFit = 4 };
inline constexpr int kNumStages = 5;

inline const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kEmbed: return "embed";
    case Stage::kFilter: return "filter";
    case Stage::kGnn: return "gnn";
    case Stage::kBuild: return "build";
    case Stage::kFit: return "fit";
  }
  return "?";
}

/// Configuration of the full five-stage Exa.TrkX pipeline (Figure 1).
struct PipelineConfig {
  EmbeddingConfig embedding{};
  FrnnConfig frnn{};
  FilterConfig filter{};
  IgnnConfig gnn{};  ///< input dims filled in from the dataset
  GnnTrainConfig gnn_train{};
  TrackBuildConfig track{};
  /// Train/infer the GNN on learned graphs (embedding → FRNN → filter) as
  /// the real pipeline does; false trains directly on the detector's
  /// geometric candidate graphs (the regime of the paper's experiments,
  /// which evaluate the GNN stage in isolation).
  bool use_learned_graphs = true;
};

/// Result of end-to-end inference on one event.
struct PipelineOutput {
  std::vector<TrackCandidate> tracks;
  TrackingMetrics metrics;
  BinaryMetrics edge_metrics;  ///< GNN edge classification on this event
};

/// The complete pipeline: hit embedding → FRNN graph construction → edge
/// filter → Interaction GNN → connected-component track building.
class TrackingPipeline {
 public:
  /// `node_dim`/`edge_dim` are the dataset's feature widths (Table I).
  TrackingPipeline(std::size_t node_dim, std::size_t edge_dim,
                   const PipelineConfig& config);

  /// Train every stage in order on `train_events`; the GNN additionally
  /// monitors `val_events`. Returns the GNN's training record.
  TrainResult fit(const std::vector<Event>& train_events,
                  const std::vector<Event>& val_events);

  /// Run all five stages on a fresh event (its candidate graph is rebuilt
  /// from scratch when use_learned_graphs is set).
  PipelineOutput reconstruct(const Event& event) const;

  /// The one inference stage sequence, shared by reconstruct() and the
  /// serving layer (src/serve): embed -> filter -> GNN -> build, then fit
  /// when `fit_field_tesla` is set. `event` is rewritten in place (its
  /// candidate graph is rebuilt and pruned); `scores` receives one GNN
  /// score per surviving edge, `tracks` the candidates and `fits` their
  /// helix fits. `threshold_scale` multiplies the filter cut (> 1 = a
  /// coarser cut keeping fewer edges). Each stage runs as
  /// `guard(stage, body)`; the guard must call `body` and may call it
  /// again, since a rerun yields the same outputs (the filter is a
  /// per-edge cut, so re-applying it keeps the same edges). Serving adds
  /// its deadlines, timeouts and retries through the guard.
  template <typename Guard>
  TRKX_HOT void run_stages(Event& event, float threshold_scale,
                           std::optional<double> fit_field_tesla,
                           Guard&& guard, std::vector<float>& scores,
                           std::vector<TrackCandidate>& tracks,
                           std::vector<FittedTrack>& fits) const;

  /// Stages 1 and 2 on their own: embed_stage re-embeds the hits and
  /// rebuilds the FRNN candidate graph in place, filter_stage prunes it
  /// with the configured cut times `threshold_scale` (both no-ops when
  /// use_learned_graphs is false).
  void embed_stage(Event& event) const;
  std::size_t filter_stage(Event& event, float threshold_scale) const;

  /// Stage access for examples and tests.
  EmbeddingModel& embedding() { return *embedding_; }
  FilterModel& filter() { return *filter_; }
  GnnModel& gnn() { return *gnn_; }
  const PipelineConfig& config() const { return config_; }

  /// Persist / restore all three trained stages plus the feature
  /// normalisation scales as one 'TKPL' model file (util/codec.hpp). The
  /// receiving pipeline must have been constructed with the same
  /// configuration; load() checks the whole file before changing anything.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  PipelineConfig config_;
  std::size_t node_dim_;
  std::size_t edge_dim_;
  FeatureScales scales_;
  std::unique_ptr<EmbeddingModel> embedding_;
  std::unique_ptr<FilterModel> filter_;
  std::unique_ptr<GnnModel> gnn_;
};

template <typename Guard>
void TrackingPipeline::run_stages(Event& event, float threshold_scale,
                                  std::optional<double> fit_field_tesla,
                                  Guard&& guard, std::vector<float>& scores,
                                  std::vector<TrackCandidate>& tracks,
                                  std::vector<FittedTrack>& fits) const {
  guard(Stage::kEmbed, [&] { embed_stage(event); });
  guard(Stage::kFilter, [&] { filter_stage(event, threshold_scale); });
  guard(Stage::kGnn, [&] {
    scores.clear();
    if (event.graph.num_edges() > 0)
      scores = gnn_->gnn->predict(event.node_features, event.edge_features,
                                  event.graph);
  });
  guard(Stage::kBuild,
        [&] { tracks = build_tracks(event, scores, config_.track); });
  if (!fit_field_tesla.has_value()) return;
  guard(Stage::kFit, [&] {
    fits.clear();
    fits.reserve(tracks.size());
    for (const TrackCandidate& track : tracks) {
      const std::optional<FittedTrack> fit =
          fit_track(event, track, *fit_field_tesla);
      if (fit.has_value()) fits.push_back(*fit);
    }
  });
}

}  // namespace trkx

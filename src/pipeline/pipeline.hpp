#pragma once

#include <memory>

#include "pipeline/embedding.hpp"
#include "pipeline/filter.hpp"
#include "pipeline/gnn_train.hpp"
#include "pipeline/graph_construction.hpp"
#include "pipeline/track_building.hpp"

namespace trkx {

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

  /// Stage-resolved inference API for the serving layer (src/serve): the
  /// same computation as reconstruct(), split so a caller can check a
  /// request deadline between stages and degrade stages individually.
  /// embed_stage re-embeds the hits and rebuilds the FRNN candidate graph
  /// in place (a no-op when use_learned_graphs is false); filter_stage
  /// prunes with the configured cut times `threshold_scale` (> 1 = a
  /// coarser cut keeping fewer edges); gnn_stage scores the surviving
  /// edges; build_stage walks them into track candidates.
  void embed_stage(Event& event) const;
  std::size_t filter_stage(Event& event, float threshold_scale) const;
  std::vector<float> gnn_stage(const Event& event) const;
  std::vector<TrackCandidate> build_stage(
      const Event& event, const std::vector<float>& scores) const;

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
  /// Apply stages 1–3 to an event copy: re-embed, rebuild the FRNN graph,
  /// filter edges. No-op when use_learned_graphs is false.
  Event prepare_event(const Event& event) const;

  PipelineConfig config_;
  std::size_t node_dim_;
  std::size_t edge_dim_;
  FeatureScales scales_;
  std::unique_ptr<EmbeddingModel> embedding_;
  std::unique_ptr<FilterModel> filter_;
  std::unique_ptr<GnnModel> gnn_;
};

}  // namespace trkx

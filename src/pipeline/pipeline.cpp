#include "pipeline/pipeline.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/codec.hpp"
#include "util/log.hpp"

namespace trkx {

constexpr std::uint32_t kModelMagic = 0x4c504b54;  // "TKPL"
constexpr std::uint32_t kModelVersion = 1;

TrackingPipeline::TrackingPipeline(std::size_t node_dim, std::size_t edge_dim,
                                   const PipelineConfig& config)
    : config_(config), node_dim_(node_dim), edge_dim_(edge_dim) {
  embedding_ = std::make_unique<EmbeddingModel>(node_dim, config.embedding);
  filter_ = std::make_unique<FilterModel>(node_dim, edge_dim, config.filter);
  IgnnConfig gnn_cfg = config.gnn;
  gnn_cfg.node_input_dim = node_dim;
  gnn_cfg.edge_input_dim = edge_dim;
  config_.gnn = gnn_cfg;
  gnn_ = std::make_unique<GnnModel>(gnn_cfg, config.gnn_train.seed);
}

void TrackingPipeline::embed_stage(Event& event) const {
  if (!config_.use_learned_graphs) return;
  const Matrix embedded = embedding_->embed(event.node_features);
  rebuild_event_graph(event, embedded, config_.frnn, edge_dim_, scales_);
}

std::size_t TrackingPipeline::filter_stage(Event& event,
                                           float threshold_scale) const {
  if (!config_.use_learned_graphs) return 0;
  return filter_->apply(event,
                        filter_->config().keep_threshold * threshold_scale);
}

TrainResult TrackingPipeline::fit(const std::vector<Event>& train_events,
                                  const std::vector<Event>& val_events) {
  TRKX_TRACE_SPAN("pipeline.fit", "pipeline");
  TRKX_CHECK(!train_events.empty());
  // Derive the feature normalisation envelope from the data.
  float r_max = 1.0f, z_max = 1.0f;
  for (const Event& e : train_events)
    for (const Hit& h : e.hits) {
      r_max = std::max(r_max, h.r());
      z_max = std::max(z_max, std::fabs(h.z));
    }
  scales_.r_max = r_max;
  scales_.z_max = z_max;

  // Stage 1: metric-learning embedding.
  TRKX_INFO << "pipeline: training embedding MLP";
  embedding_->train(train_events);

  std::vector<Event> gnn_train_events;
  std::vector<Event> gnn_val_events;
  if (config_.use_learned_graphs) {
    // Stage 3 training uses the FRNN graphs from stage 2 (which the filter
    // then prunes before the GNN sees them).
    TRKX_INFO << "pipeline: rebuilding graphs in embedding space";
    std::vector<Event> frnn_train;
    frnn_train.reserve(train_events.size());
    for (const Event& e : train_events) {
      Event copy = e;
      embed_stage(copy);
      frnn_train.push_back(std::move(copy));
    }
    TRKX_INFO << "pipeline: training filter MLP";
    filter_->train(frnn_train);
    for (Event& e : frnn_train) filter_stage(e, 1.0f);
    gnn_train_events = std::move(frnn_train);
    for (const Event& e : val_events) {
      Event copy = e;
      embed_stage(copy);
      filter_stage(copy, 1.0f);
      gnn_val_events.push_back(std::move(copy));
    }
  } else {
    TRKX_INFO << "pipeline: training filter MLP (geometric graphs)";
    filter_->train(train_events);
    gnn_train_events = train_events;
    gnn_val_events = val_events;
  }

  // Stage 4: the Interaction GNN, minibatch-trained with bulk ShaDow (the
  // paper's augmented regime).
  TRKX_INFO << "pipeline: training GNN ("
            << gnn_train_events.size() << " graphs)";
  return train_shadow(*gnn_, gnn_train_events, gnn_val_events,
                      config_.gnn_train, SamplerKind::kMatrixBulk);
}

void TrackingPipeline::save(std::ostream& os) const {
  ByteWriter payload;
  for (float scale : {scales_.r_max, scales_.z_max, scales_.eta_max})
    payload.put(scale);
  embedding_->store().save(payload);
  filter_->store().save(payload);
  gnn_->store.save(payload);
  ByteWriter::envelope(kModelMagic, kModelVersion, payload.bytes)
      .write_to(os, CodecError::kCheckpoint, "pipeline model");
}

void TrackingPipeline::load(std::istream& is) {
  ByteReader file(is, CodecError::kCheckpoint, "pipeline model");
  ByteReader r = file.get_envelope(kModelMagic, kModelVersion, "model file");
  FeatureScales scales;
  for (float* scale : {&scales.r_max, &scales.z_max, &scales.eta_max}) {
    *scale = r.get<float>();
    if (!std::isfinite(*scale) || *scale <= 0.0f)
      r.fail("feature scale is not a positive finite number");
  }
  // Decode all three stages before committing any of them.
  const std::vector<float> embedding = embedding_->store().read_values(r);
  const std::vector<float> filter = filter_->store().read_values(r);
  const std::vector<float> gnn = gnn_->store.read_values(r);
  r.expect_end();
  scales_ = scales;
  embedding_->store().unflatten_values(embedding);
  filter_->store().unflatten_values(filter);
  gnn_->store.unflatten_values(gnn);
}

PipelineOutput TrackingPipeline::reconstruct(const Event& event) const {
  TRKX_TRACE_SPAN("pipeline.reconstruct", "pipeline");
  metrics().counter("pipeline.reconstruct.events").add(1);
  Event prepared = event;
  std::vector<float> scores;
  std::vector<FittedTrack> no_fits;
  PipelineOutput out;
  run_stages(prepared, 1.0f, std::nullopt,
             [](Stage, const auto& body) { body(); }, scores, out.tracks,
             no_fits);
  for (std::size_t e = 0; e < scores.size(); ++e)
    out.edge_metrics.add(scores[e] >= config_.track.edge_threshold,
                         prepared.edge_labels[e] != 0);
  out.metrics = score_tracks(prepared, out.tracks, config_.track);
  return out;
}

}  // namespace trkx

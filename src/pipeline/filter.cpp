#include "pipeline/filter.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/log.hpp"

namespace trkx {

FilterModel::FilterModel(std::size_t node_feature_dim,
                         std::size_t edge_feature_dim,
                         const FilterConfig& config)
    : config_(config), rng_(config.seed) {
  MlpConfig mlp;
  mlp.input_dim = 2 * node_feature_dim + edge_feature_dim;
  mlp.hidden_dim = config.hidden_dim;
  mlp.output_dim = 1;
  mlp.num_hidden = config.num_hidden;
  mlp.output_activation = Activation::kNone;
  mlp.layer_norm = true;
  Rng init_rng = rng_.split();
  mlp_ = std::make_unique<Mlp>(store_, "filter", mlp, init_rng);
}

Matrix FilterModel::edge_inputs(const Event& event) const {
  const Matrix x_src =
      row_gather(event.node_features, event.graph.src_indices());
  const Matrix x_dst =
      row_gather(event.node_features, event.graph.dst_indices());
  return concat_cols({&x_src, &x_dst, &event.edge_features});
}

std::vector<float> FilterModel::score(const Event& event) const {
  if (event.graph.num_edges() == 0) return {};
  TapeContext ctx;
  Var logits = mlp_->forward(ctx, ctx.constant(edge_inputs(event)));
  Var probs = ctx.tape().sigmoid(logits);
  std::vector<float> out(probs.rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = probs.value()(i, 0);
  return out;
}

std::vector<double> FilterModel::train(const std::vector<Event>& events) {
  TRKX_TRACE_SPAN("filter.train", "pipeline");
  metrics().counter("pipeline.filter_train.events").add(1);
  TRKX_CHECK(!events.empty());
  // Auto pos_weight from global imbalance: fakes dominate, so weight
  // positives up to keep recall.
  const float pos_weight =
      config_.pos_weight > 0.0f ? config_.pos_weight : auto_pos_weight(events);

  Adam opt(store_, AdamOptions{.lr = config_.lr});
  std::vector<double> epoch_loss;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double total = 0.0;
    std::size_t steps = 0;
    for (const Event& event : events) {
      if (event.graph.num_edges() == 0) continue;
      TapeContext ctx;
      Var logits = mlp_->forward(ctx, ctx.constant(edge_inputs(event)));
      std::vector<float> labels(event.edge_labels.begin(),
                                event.edge_labels.end());
      Var loss =
          ctx.tape().bce_with_logits(logits, labels, {}, pos_weight);
      opt.zero_grad();
      ctx.backward(loss);
      opt.step();
      total += loss.value()(0, 0);
      ++steps;
    }
    epoch_loss.push_back(steps == 0 ? 0.0 : total / static_cast<double>(steps));
    TRKX_DEBUG << "filter epoch " << epoch << " loss " << epoch_loss.back();
  }
  return epoch_loss;
}

std::size_t FilterModel::apply(Event& event) const {
  return apply(event, config_.keep_threshold);
}

std::size_t FilterModel::apply(Event& event, float keep_threshold) const {
  TRKX_TRACE_SPAN("filter.apply", "pipeline");
  metrics().counter("pipeline.filter.events").add(1);
  const std::vector<float> scores = score(event);
  if (scores.empty()) return 0;
  std::vector<Edge> kept_edges;
  std::vector<char> kept_labels;
  std::vector<std::uint32_t> kept_idx;
  for (std::size_t e = 0; e < scores.size(); ++e) {
    if (scores[e] < keep_threshold) continue;
    kept_edges.push_back(event.graph.edge(e));
    kept_labels.push_back(event.edge_labels[e]);
    kept_idx.push_back(static_cast<std::uint32_t>(e));
  }
  const std::size_t removed = scores.size() - kept_edges.size();
  event.edge_features = row_gather(event.edge_features, kept_idx);
  event.graph = Graph(event.hits.size(), std::move(kept_edges));
  event.edge_labels = std::move(kept_labels);
  return removed;
}

}  // namespace trkx

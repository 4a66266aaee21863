#include "gnn/interaction_gnn.hpp"

#include "util/error.hpp"

namespace trkx {

namespace {

/// The shapes of every MLP in the model, shared by the constructor and
/// ignn_activation_estimate.
struct IgnnMlps {
  MlpConfig node_enc, edge_enc, edge, node, gate, classifier;
};

IgnnMlps ignn_mlps(const IgnnConfig& config) {
  const std::size_t h = config.hidden_dim;
  MlpConfig enc;
  enc.hidden_dim = h;
  enc.output_dim = h;
  enc.num_hidden = config.mlp_hidden;
  enc.output_activation = Activation::kTanh;
  enc.layer_norm = config.layer_norm;

  IgnnMlps m{enc, enc, enc, enc, {}, enc};
  m.node_enc.input_dim = config.node_input_dim;
  m.edge_enc.input_dim = config.edge_input_dim;
  m.edge.input_dim = 6 * h;  // [Y′(2h)  X′[src](2h)  X′[dst](2h)]
  m.node.input_dim = 4 * h;  // [M_src(h)  M_dst(h)  X′(2h)]
  m.gate.input_dim = h;
  m.gate.hidden_dim = h;
  m.gate.output_dim = 1;
  m.gate.num_hidden = 0;  // a single linear gate keeps attention cheap
  m.gate.output_activation = Activation::kSigmoid;
  m.classifier.input_dim = h;
  m.classifier.output_dim = 1;
  m.classifier.output_activation = Activation::kNone;
  m.classifier.layer_norm = false;
  return m;
}

}  // namespace

InteractionGnn::InteractionGnn(ParameterStore& store, const IgnnConfig& config,
                               Rng& rng)
    : config_(config) {
  TRKX_CHECK(config.node_input_dim > 0);
  TRKX_CHECK(config.edge_input_dim > 0);
  TRKX_CHECK(config.hidden_dim > 0);
  const IgnnMlps mlps = ignn_mlps(config);
  node_encoder_ =
      std::make_unique<Mlp>(store, "ignn.node_enc", mlps.node_enc, rng);
  edge_encoder_ =
      std::make_unique<Mlp>(store, "ignn.edge_enc", mlps.edge_enc, rng);

  // Per-layer MSG and node-update MLPs (distinct per layer, as Algorithm 1
  // notes; one shared pair when shared_weights is set).
  const std::size_t unique_layers = config.shared_weights ? 1 : config.num_layers;
  for (std::size_t l = 0; l < unique_layers; ++l) {
    edge_mlps_.push_back(std::make_unique<Mlp>(
        store, "ignn.edge_mlp" + std::to_string(l), mlps.edge, rng));
    node_mlps_.push_back(std::make_unique<Mlp>(
        store, "ignn.node_mlp" + std::to_string(l), mlps.node, rng));
    if (config.attention) {
      gate_mlps_.push_back(std::make_unique<Mlp>(
          store, "ignn.gate_mlp" + std::to_string(l), mlps.gate, rng));
    }
  }
  edge_classifier_ =
      std::make_unique<Mlp>(store, "ignn.classifier", mlps.classifier, rng);
}

const Mlp& InteractionGnn::edge_mlp(std::size_t layer) const {
  return *edge_mlps_[config_.shared_weights ? 0 : layer];
}

const Mlp& InteractionGnn::node_mlp(std::size_t layer) const {
  return *node_mlps_[config_.shared_weights ? 0 : layer];
}

Var InteractionGnn::forward(TapeContext& ctx, const Matrix& node_features,
                            const Matrix& edge_features,
                            const std::vector<std::uint32_t>& src,
                            const std::vector<std::uint32_t>& dst,
                            std::size_t num_vertices) const {
  TRKX_CHECK(node_features.cols() == config_.node_input_dim);
  TRKX_CHECK(edge_features.cols() == config_.edge_input_dim);
  TRKX_CHECK(node_features.rows() == num_vertices);
  TRKX_CHECK(src.size() == edge_features.rows());
  TRKX_CHECK(dst.size() == edge_features.rows());
  Tape& t = ctx.tape();

  Var x_in = ctx.constant(node_features);
  Var y_in = ctx.constant(edge_features);
  Var x0 = node_encoder_->forward(ctx, x_in);  // X⁰ (n × h)
  Var y0 = edge_encoder_->forward(ctx, y_in);  // Y⁰ (m × h)
  Var x = x0;
  Var y = y0;

  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    // MSG: Yˡ⁺¹ (m × h) from the edge state and both endpoints. Its
    // m × 6h input [Y′ X′[src] X′[dst]] is read as three terms, so the
    // endpoint products X′·W run on n rows and are gathered afterwards.
    Var y_new = edge_mlp(l).forward(
        ctx, {{{y, y0}, nullptr}, {{x, x0}, &src}, {{x, x0}, &dst}});
    // AGG: sum incident edge messages at each endpoint role, optionally
    // gated per edge so unreliable (fake) edges contribute less.
    Var messages = y_new;
    if (config_.attention) {
      const Mlp& gate =
          *gate_mlps_[config_.shared_weights ? 0 : l];
      Var alpha = gate.forward(ctx, y_new);  // m × 1 in (0, 1)
      messages = t.scale_rows(y_new, alpha);
    }
    Var m_src = t.segment_sum(messages, src, num_vertices);
    Var m_dst = t.segment_sum(messages, dst, num_vertices);
    // Xˡ⁺¹ (n × h) from [M_src M_dst X′], read as one term.
    Var x_new = node_mlp(l).forward(ctx, {{{m_src, m_dst, x, x0}, nullptr}});
    x = x_new;
    y = y_new;
  }
  return edge_classifier_->forward(ctx, y);  // m × 1 logits
}

Var InteractionGnn::forward(TapeContext& ctx, const Matrix& node_features,
                            const Matrix& edge_features,
                            const Graph& graph) const {
  return forward(ctx, node_features, edge_features, graph.src_indices(),
                 graph.dst_indices(), graph.num_vertices());
}

std::vector<float> InteractionGnn::predict(const Matrix& node_features,
                                           const Matrix& edge_features,
                                           const Graph& graph) const {
  TapeContext ctx;
  Var logits = forward(ctx, node_features, edge_features, graph);
  Var probs = ctx.tape().sigmoid(logits);
  const Matrix& p = probs.value();
  std::vector<float> out(p.rows());
  for (std::size_t i = 0; i < p.rows(); ++i) out[i] = p(i, 0);
  return out;
}

std::size_t ignn_activation_estimate(const IgnnConfig& config,
                                     std::size_t num_vertices,
                                     std::size_t num_edges) {
  const IgnnMlps mlps = ignn_mlps(config);
  const std::size_t n = num_vertices, m = num_edges, h = config.hidden_dim;
  // Per layer: the edge MLP (its first layer's split products and the
  // gathered rows are transient; only its m × h output stays), the
  // optional gate and gated messages, M_src and M_dst, the node MLP.
  std::size_t per_layer = mlp_tape_floats(mlps.edge, m) + 2 * n * h +
                          mlp_tape_floats(mlps.node, n);
  if (config.attention) per_layer += mlp_tape_floats(mlps.gate, m) + m * h;
  return n * config.node_input_dim + m * config.edge_input_dim +
         mlp_tape_floats(mlps.node_enc, n) + mlp_tape_floats(mlps.edge_enc, m) +
         per_layer * config.num_layers + mlp_tape_floats(mlps.classifier, m);
}

}  // namespace trkx

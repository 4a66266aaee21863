#include "gnn/gcn.hpp"

#include <cmath>

#include "util/error.hpp"

namespace trkx {

GcnEdgeClassifier::GcnEdgeClassifier(ParameterStore& store,
                                     const GcnConfig& config, Rng& rng)
    : config_(config) {
  TRKX_CHECK(config.node_input_dim > 0);
  TRKX_CHECK(config.edge_input_dim > 0);
  TRKX_CHECK(config.hidden_dim > 0);
  const std::size_t h = config.hidden_dim;

  MlpConfig enc;
  enc.input_dim = config.node_input_dim;
  enc.hidden_dim = h;
  enc.output_dim = h;
  enc.num_hidden = config.mlp_hidden;
  enc.output_activation = Activation::kTanh;
  node_encoder_ = std::make_unique<Mlp>(store, "gcn.node_enc", enc, rng);

  for (std::size_t l = 0; l < config.num_layers; ++l) {
    Parameter& w = store.create("gcn.layer" + std::to_string(l) + ".weight",
                                h, h);
    init_xavier_uniform(w.value, rng);
    Parameter& b = store.create("gcn.layer" + std::to_string(l) + ".bias",
                                1, h);
    layer_weights_.push_back(&w);
    layer_bias_.push_back(&b);
  }

  MlpConfig head;
  head.input_dim = 2 * h + config.edge_input_dim;
  head.hidden_dim = h;
  head.output_dim = 1;
  head.num_hidden = config.mlp_hidden;
  head.output_activation = Activation::kNone;
  edge_head_ = std::make_unique<Mlp>(store, "gcn.edge_head", head, rng);
}

CsrMatrix GcnEdgeClassifier::normalized_adjacency(const Graph& graph) {
  // A_sym + I, then symmetric degree normalisation.
  std::vector<Triplet> trips;
  trips.reserve(graph.num_edges() * 2 + graph.num_vertices());
  for (const Edge& e : graph.edges()) {
    if (e.src == e.dst) continue;
    trips.push_back({e.src, e.dst, 1.0f});
    trips.push_back({e.dst, e.src, 1.0f});
  }
  for (std::uint32_t v = 0; v < graph.num_vertices(); ++v)
    trips.push_back({v, v, 1.0f});
  CsrMatrix a = CsrMatrix::from_triplets(graph.num_vertices(),
                                         graph.num_vertices(),
                                         std::move(trips));
  for (float& v : a.values()) v = 1.0f;  // collapse duplicate sums
  // D^(-1/2) scaling on both sides.
  std::vector<float> inv_sqrt_deg(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const std::size_t deg = a.row_nnz(r);
    inv_sqrt_deg[r] = deg == 0 ? 0.0f
                               : 1.0f / std::sqrt(static_cast<float>(deg));
  }
  auto trips2 = a.to_triplets();
  for (Triplet& t : trips2)
    t.val = inv_sqrt_deg[t.row] * inv_sqrt_deg[t.col];
  return CsrMatrix::from_triplets(a.rows(), a.cols(), std::move(trips2),
                                  false);
}

Var GcnEdgeClassifier::forward(TapeContext& ctx, const CsrMatrix& norm_adj,
                               const Matrix& node_features,
                               const Matrix& edge_features,
                               const std::vector<std::uint32_t>& src,
                               const std::vector<std::uint32_t>& dst) const {
  TRKX_CHECK(node_features.cols() == config_.node_input_dim);
  TRKX_CHECK(edge_features.cols() == config_.edge_input_dim);
  TRKX_CHECK(norm_adj.rows() == node_features.rows());
  TRKX_CHECK(src.size() == edge_features.rows());
  Tape& t = ctx.tape();

  Var h = node_encoder_->forward(ctx, ctx.constant(node_features));
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    Var w = ctx.bind(*layer_weights_[l]);
    Var b = ctx.bind(*layer_bias_[l]);
    // H' = relu(Â·H·W + b) with a residual connection for depth.
    Var agg = t.spmm(norm_adj, h);
    Var lin = t.linear(agg, w, b);
    h = t.add(t.relu(lin), h);
  }
  Var h_src = t.row_gather(h, src);
  Var h_dst = t.row_gather(h, dst);
  Var head_in = t.concat_cols({h_src, h_dst, ctx.constant(edge_features)});
  return edge_head_->forward(ctx, head_in);
}

std::vector<float> GcnEdgeClassifier::predict(const Matrix& node_features,
                                              const Matrix& edge_features,
                                              const Graph& graph) const {
  const CsrMatrix norm_adj = normalized_adjacency(graph);
  TapeContext ctx;
  Var logits = forward(ctx, norm_adj, node_features, edge_features,
                       graph.src_indices(), graph.dst_indices());
  Var probs = ctx.tape().sigmoid(logits);
  std::vector<float> out(probs.rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = probs.value()(i, 0);
  return out;
}

}  // namespace trkx

#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "nn/mlp.hpp"
#include "util/annotations.hpp"

namespace trkx {

/// Interaction GNN hyperparameters (paper defaults: hidden 64, 8 layers).
struct IgnnConfig {
  std::size_t node_input_dim = 0;
  std::size_t edge_input_dim = 0;
  std::size_t hidden_dim = 64;
  /// Message-passing iterations (L). 0 is allowed and degenerates to an
  /// edge-feature MLP classifier with no graph context — the
  /// "does message passing matter" ablation baseline.
  std::size_t num_layers = 8;
  std::size_t mlp_hidden = 2;   ///< hidden layers inside each φ (Table I)
  bool layer_norm = true;
  /// Share one edge-MLP and one node-MLP across all L iterations instead
  /// of distinct per-layer MLPs. Cuts parameters ~L×; ablation knob.
  bool shared_weights = false;
  /// Attention-gated aggregation: each edge message Yˡ⁺¹ₑ is weighted by a
  /// learned gate σ(φ_att(Yˡ⁺¹ₑ)) before the segment sums, so noisy fake
  /// edges can be down-weighted during node updates (a GAT-flavoured
  /// extension beyond the paper's plain-sum IGNN).
  bool attention = false;
};

/// Interaction Network for edge classification — Algorithm 1 of the paper.
///
/// Per layer l:
///   X′ = [Xˡ X⁰],  Y′ = [Yˡ Y⁰]          (initial-feature skip concat)
///   Yˡ⁺¹ = φₑˡ([Y′  X′[src]  X′[dst]])     (MSG: per-edge MLP)
///   M_src = Σ_{e: src(e)=v} Yˡ⁺¹ₑ          (AGG via segment_sum)
///   M_dst = Σ_{e: dst(e)=v} Yˡ⁺¹ₑ
///   Xˡ⁺¹ = φᵥˡ([M_src  M_dst  X′])
/// and the output is a per-edge logit φ_out(Y^L) for binary track/fake
/// classification.
///
/// The concats are virtual: each MLP's first layer reads its input as
/// terms (Tape::linear), each block times its own row block of W. MSG's
/// first layer is Y′·W₁₂ + (X′·W₃₄)[src] + (X′·W₅₆)[dst] + b, so the
/// endpoint products run on n vertex rows and are gathered after the
/// GEMM, and neither the m × 6h nor the n × 4h input is ever built.
class InteractionGnn {
 public:
  InteractionGnn(ParameterStore& store, const IgnnConfig& config, Rng& rng);

  /// Record the forward pass on `ctx`; returns m×1 edge logits.
  /// `src`/`dst` are the endpoint index arrays of the m edges (A.rows /
  /// A.cols); `num_vertices` bounds the aggregation. The tape borrows
  /// `src` and `dst` (its backward reads them), so they must outlive
  /// `ctx`; the Graph overload passes the graph's own arrays.
  Var forward(TapeContext& ctx, const Matrix& node_features,
              const Matrix& edge_features,
              const std::vector<std::uint32_t>& src,
              const std::vector<std::uint32_t>& dst,
              std::size_t num_vertices) const;

  /// Convenience: forward on a whole graph.
  Var forward(TapeContext& ctx, const Matrix& node_features,
              const Matrix& edge_features, const Graph& graph) const;

  /// Inference without retaining gradients: per-edge P(track edge).
  /// Inference stage 4: TRKX_HOT — no allocation/blocking in its closure.
  TRKX_HOT std::vector<float> predict(const Matrix& node_features,
                                      const Matrix& edge_features,
                                      const Graph& graph) const;

  const IgnnConfig& config() const { return config_; }

 private:
  const Mlp& edge_mlp(std::size_t layer) const;
  const Mlp& node_mlp(std::size_t layer) const;

  IgnnConfig config_;
  std::unique_ptr<Mlp> node_encoder_;
  std::unique_ptr<Mlp> edge_encoder_;
  std::vector<std::unique_ptr<Mlp>> edge_mlps_;  ///< per layer (or 1 shared)
  std::vector<std::unique_ptr<Mlp>> node_mlps_;
  std::vector<std::unique_ptr<Mlp>> gate_mlps_;  ///< attention gates (opt.)
  std::unique_ptr<Mlp> edge_classifier_;
};

/// Count of floats a full-graph IGNN training forward keeps on its tape
/// (Tape::activation_floats() after forward() returns the logits): the
/// input features, every retained MLP output, activation and layer norm,
/// the aggregated messages, and the bound parameters ctx.bind copies in.
/// The memory-wall quantity (per layer ≈ 6·m·h edge and 8·n·h node floats
/// with 2 hidden layers and layer norm) that makes Exa.TrkX skip large
/// graphs; used by fits_memory_budget and the memory ablation bench.
std::size_t ignn_activation_estimate(const IgnnConfig& config,
                                     std::size_t num_vertices,
                                     std::size_t num_edges);

}  // namespace trkx

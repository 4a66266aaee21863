#pragma once

#include <string>
#include <vector>

#include "nn/module.hpp"

namespace trkx {

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

Var apply_activation(Tape& tape, Var x, Activation act);

/// Fully-connected layer: y = x·W + b, with W (in×out) and b (1×out)
/// registered in a ParameterStore.
class Linear {
 public:
  Linear(ParameterStore& store, const std::string& name, std::size_t in_dim,
         std::size_t out_dim, Rng& rng);

  Var forward(TapeContext& ctx, Var x) const;
  /// The same layer on an input given as terms (Tape::linear), whose
  /// total width must be in_dim(): term t's blocks read W's next rows.
  Var forward(TapeContext& ctx, const std::vector<LinearTerm>& terms) const;

  std::size_t in_dim() const { return weight_->value.rows(); }
  std::size_t out_dim() const { return weight_->value.cols(); }

 private:
  Parameter* weight_;
  Parameter* bias_;
};

/// Configuration for an MLP block as used throughout the Exa.TrkX
/// pipeline: `num_hidden` hidden layers of width `hidden_dim`, each a
/// linear layer and a ReLU with optional LayerNorm, then an output
/// activation.
struct MlpConfig {
  std::size_t input_dim = 0;
  std::size_t hidden_dim = 0;
  std::size_t output_dim = 0;
  std::size_t num_hidden = 1;  ///< hidden layer count ("MLP Layers" in Table I is num_hidden+1 linear layers)
  Activation output_activation = Activation::kNone;
  bool layer_norm = false;  ///< LayerNorm after each hidden ReLU
};

/// Multi-layer perceptron; the φ blocks in Algorithm 1.
class Mlp {
 public:
  Mlp(ParameterStore& store, const std::string& name, const MlpConfig& config,
      Rng& rng);

  Var forward(TapeContext& ctx, Var x) const;
  /// The same MLP with its first layer reading its input as terms (a
  /// concatenation it never builds, optionally gathered; Tape::linear).
  Var forward(TapeContext& ctx, const std::vector<LinearTerm>& terms) const;

  const MlpConfig& config() const { return config_; }
  /// Linear layer count (num_hidden + 1 output layer).
  std::size_t num_linear_layers() const { return layers_.size(); }

 private:
  MlpConfig config_;
  std::vector<Linear> layers_;
  // LayerNorm affine parameters per hidden layer (empty when disabled).
  std::vector<Parameter*> ln_gamma_;
  std::vector<Parameter*> ln_beta_;
};

/// Floats one Mlp::forward over `rows` input rows keeps on the tape: per
/// linear layer the bound weight and bias (TapeContext::bind copies them
/// onto the tape) and its output, per hidden layer its ReLU output or,
/// with layer norm, the bound gamma and beta and the fused op's
/// normalised output, and the output activation unless it is kNone.
std::size_t mlp_tape_floats(const MlpConfig& config, std::size_t rows);

}  // namespace trkx

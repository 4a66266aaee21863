#include "nn/mlp.hpp"

#include "util/error.hpp"

namespace trkx {

Var apply_activation(Tape& tape, Var x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return tape.relu(x);
    case Activation::kTanh: return tape.tanh(x);
    case Activation::kSigmoid: return tape.sigmoid(x);
  }
  TRKX_CHECK_MSG(false, "unknown activation");
}

Linear::Linear(ParameterStore& store, const std::string& name,
               std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  TRKX_CHECK(in_dim > 0 && out_dim > 0);
  weight_ = &store.create(name + ".weight", in_dim, out_dim);
  bias_ = &store.create(name + ".bias", 1, out_dim);
  init_kaiming_uniform(weight_->value, rng);
  // Bias stays zero-initialised.
}

Var Linear::forward(TapeContext& ctx, Var x) const {
  return forward(ctx, {LinearTerm{{x}, nullptr}});
}

Var Linear::forward(TapeContext& ctx,
                    const std::vector<LinearTerm>& terms) const {
  std::size_t width = 0;
  for (const LinearTerm& term : terms)
    for (Var v : term.inputs) width += v.cols();
  TRKX_CHECK_MSG(width == in_dim(), "Linear expects input dim "
                                        << in_dim() << ", got " << width);
  Var w = ctx.bind(*weight_);
  Var b = ctx.bind(*bias_);
  return ctx.tape().linear(terms, w, b);
}

Mlp::Mlp(ParameterStore& store, const std::string& name,
         const MlpConfig& config, Rng& rng)
    : config_(config) {
  TRKX_CHECK(config.input_dim > 0 && config.output_dim > 0);
  TRKX_CHECK(config.num_hidden == 0 || config.hidden_dim > 0);
  std::size_t in = config.input_dim;
  for (std::size_t i = 0; i < config.num_hidden; ++i) {
    layers_.emplace_back(store, name + ".hidden" + std::to_string(i), in,
                         config.hidden_dim, rng);
    in = config.hidden_dim;
    if (config.layer_norm) {
      Parameter& gamma = store.create(
          name + ".ln" + std::to_string(i) + ".gamma", 1, config.hidden_dim);
      gamma.value.fill(1.0f);
      Parameter& beta = store.create(
          name + ".ln" + std::to_string(i) + ".beta", 1, config.hidden_dim);
      ln_gamma_.push_back(&gamma);
      ln_beta_.push_back(&beta);
    }
  }
  layers_.emplace_back(store, name + ".out", in, config.output_dim, rng);
}

Var Mlp::forward(TapeContext& ctx, Var x) const {
  return forward(ctx, {LinearTerm{{x}, nullptr}});
}

Var Mlp::forward(TapeContext& ctx, const std::vector<LinearTerm>& terms) const {
  Var h = layers_.front().forward(ctx, terms);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    if (config_.layer_norm) {
      Var gamma = ctx.bind(*ln_gamma_[i - 1]);
      Var beta = ctx.bind(*ln_beta_[i - 1]);
      h = ctx.tape().relu_layer_norm(h, gamma, beta);
    } else {
      h = ctx.tape().relu(h);
    }
    h = layers_[i].forward(ctx, h);
  }
  return apply_activation(ctx.tape(), h, config_.output_activation);
}

std::size_t mlp_tape_floats(const MlpConfig& config, std::size_t rows) {
  const std::size_t out_act =
      config.output_activation == Activation::kNone ? 0 : 1;
  const std::size_t h = config.hidden_dim;
  std::size_t total = 0;
  std::size_t in = config.input_dim;
  for (std::size_t i = 0; i < config.num_hidden; ++i) {
    total += (in + 1) * h + 2 * rows * h;  // z and relu(z) or its norm
    if (config.layer_norm) total += 2 * h;
    in = h;
  }
  return total + (in + 1) * config.output_dim +
         rows * config.output_dim * (1 + out_act);
}

}  // namespace trkx

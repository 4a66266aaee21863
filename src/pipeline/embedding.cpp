#include "pipeline/embedding.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace trkx {

EmbeddingModel::EmbeddingModel(std::size_t node_feature_dim,
                               const EmbeddingConfig& config)
    : config_(config), rng_(config.seed) {
  MlpConfig mlp;
  mlp.input_dim = node_feature_dim;
  mlp.hidden_dim = config.hidden_dim;
  mlp.output_dim = config.embed_dim;
  mlp.num_hidden = config.num_hidden;
  mlp.output_activation = Activation::kNone;
  mlp.layer_norm = true;
  Rng init_rng = rng_.split();
  mlp_ = std::make_unique<Mlp>(store_, "embed", mlp, init_rng);
}

Matrix EmbeddingModel::embed(const Matrix& node_features) const {
  // Without a backward() call the tape is just a calculator.
  TapeContext ctx;
  Var e = mlp_->forward(ctx, ctx.constant(node_features));
  return e.value();
}

double EmbeddingModel::train_batch(const Matrix& feats_a,
                                   const Matrix& feats_b,
                                   const std::vector<float>& is_positive,
                                   Adam& opt) {
  TapeContext ctx;
  Var a = mlp_->forward(ctx, ctx.constant(feats_a));
  Var b = mlp_->forward(ctx, ctx.constant(feats_b));
  Var loss = ctx.tape().contrastive_pair_loss(a, b, is_positive,
                                              config_.margin);
  opt.zero_grad();
  ctx.backward(loss);
  opt.step();
  return loss.value()(0, 0);
}

std::vector<double> EmbeddingModel::train(const std::vector<Event>& events) {
  TRKX_TRACE_SPAN("embedding.train", "pipeline");
  metrics().counter("pipeline.embedding.events").add(1);
  TRKX_CHECK(!events.empty());
  Adam opt(store_, AdamOptions{.lr = config_.lr});
  std::vector<double> epoch_loss;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double total = 0.0;
    std::size_t batches = 0;
    for (const Event& event : events) {
      // Collect positive pairs (consecutive same-track hits).
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pos;
      for (const TruthParticle& p : event.particles)
        for (std::size_t i = 0; i + 1 < p.hits.size(); ++i)
          pos.emplace_back(p.hits[i], p.hits[i + 1]);
      if (pos.empty() || event.hits.size() < 2) continue;

      const std::size_t n_pairs =
          std::min(config_.pairs_per_event, pos.size() * 2);
      std::vector<std::uint32_t> ia, ib;
      std::vector<float> labels;
      ia.reserve(n_pairs);
      ib.reserve(n_pairs);
      labels.reserve(n_pairs);
      for (std::size_t k = 0; k < n_pairs; ++k) {
        if (rng_.bernoulli(0.5)) {
          const auto& [u, v] = pos[rng_.uniform_index(pos.size())];
          ia.push_back(u);
          ib.push_back(v);
          labels.push_back(1.0f);
        } else {
          // Random pair; occasionally a true pair slips in, which is
          // harmless label noise at realistic hit counts.
          // NOLINT(trkx-narrow-cast): index < hits.size(), a uint32 count
          ia.push_back(static_cast<std::uint32_t>(
              rng_.uniform_index(event.hits.size())));
          // NOLINT(trkx-narrow-cast): index < hits.size(), a uint32 count
          ib.push_back(static_cast<std::uint32_t>(
              rng_.uniform_index(event.hits.size())));
          labels.push_back(0.0f);
        }
      }
      const Matrix fa = row_gather(event.node_features, ia);
      const Matrix fb = row_gather(event.node_features, ib);
      total += train_batch(fa, fb, labels, opt);
      ++batches;
    }
    epoch_loss.push_back(batches == 0 ? 0.0 : total / static_cast<double>(batches));
    TRKX_DEBUG << "embedding epoch " << epoch << " loss "
               << epoch_loss.back();
  }
  return epoch_loss;
}

}  // namespace trkx

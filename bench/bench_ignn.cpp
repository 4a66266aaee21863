// Ablation A4: Interaction GNN forward/backward cost and activation
// memory versus graph size — the "memory wall" (paper §III-B) that makes
// full-graph Exa.TrkX training skip large events, and the motivation for
// minibatch ShaDow training. Each step reports the activations its tape
// keeps (activation_MB) and the tape's measured high-water, activations
// plus the gradients held at once during backward (tape_peak_MB).

#include <benchmark/benchmark.h>

#include "bench_gb_json.hpp"

#include "detector/presets.hpp"
#include "pipeline/gnn_train.hpp"

namespace trkx {
namespace {

IgnnConfig bench_gnn(std::size_t node_dim, std::size_t edge_dim,
                     std::size_t layers) {
  IgnnConfig cfg;
  cfg.node_input_dim = node_dim;
  cfg.edge_input_dim = edge_dim;
  cfg.hidden_dim = 64;  // paper hidden dim
  cfg.num_layers = layers;
  cfg.mlp_hidden = 1;
  return cfg;
}

Event event_of_scale(double scale) {
  DatasetSpec spec = ex3_spec(scale);
  Rng rng(static_cast<std::uint64_t>(scale * 1e4) + 3);
  return generate_event(spec.detector, rng);
}

/// Full-graph forward+backward cost as the event grows — the quantity
/// that blows past GPU memory in the original pipeline.
void BM_IgnnFullGraphStep(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  Event e = event_of_scale(scale);
  GnnModel model(bench_gnn(e.node_features.cols(), e.edge_features.cols(), 4),
                 1);
  Adam opt(model.store, AdamOptions{});
  std::vector<float> labels(e.edge_labels.begin(), e.edge_labels.end());
  std::size_t activation_floats = 0, peak_floats = 0;
  for (auto _ : state) {
    TapeContext ctx;
    Var logits = model.gnn->forward(ctx, e.node_features, e.edge_features,
                                    e.graph);
    Var loss = ctx.tape().bce_with_logits(logits, labels);
    opt.zero_grad();
    ctx.backward(loss);
    opt.step();
    activation_floats = ctx.tape().activation_floats();
    peak_floats = ctx.tape().peak_floats();
    benchmark::DoNotOptimize(loss);
  }
  state.counters["vertices"] = static_cast<double>(e.num_hits());
  state.counters["edges"] = static_cast<double>(e.num_edges());
  state.counters["activation_MB"] =
      static_cast<double>(activation_floats) * 4.0 / 1e6;
  state.counters["tape_peak_MB"] = static_cast<double>(peak_floats) * 4.0 / 1e6;
}
BENCHMARK(BM_IgnnFullGraphStep)->Arg(2)->Arg(5)->Arg(10)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

/// Minibatch step cost is bounded by the sampled receptive field, not the
/// event size: the ShaDow guarantee.
void BM_IgnnShadowStep(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  Event e = event_of_scale(scale);
  GnnModel model(bench_gnn(e.node_features.cols(), e.edge_features.cols(), 4),
                 1);
  Adam opt(model.store, AdamOptions{});
  MatrixShadowSampler sampler(e.graph, {.depth = 2, .fanout = 4});
  Rng rng(7);
  Rng batch_rng(8);
  auto batches = make_minibatches(e.num_hits(), 128, batch_rng);
  std::size_t activation_floats = 0, peak_floats = 0;
  std::size_t bi = 0;
  for (auto _ : state) {
    const auto& batch = batches[bi++ % batches.size()];
    ShadowSample s = sampler.sample(batch, rng);
    Matrix nf = row_gather(e.node_features, s.sub.vertex_map);
    Matrix ef = row_gather(e.edge_features, s.sub.edge_map);
    std::vector<float> labels;
    labels.reserve(s.sub.edge_map.size());
    for (auto em : s.sub.edge_map)
      labels.push_back(e.edge_labels[em] ? 1.0f : 0.0f);
    if (labels.empty()) continue;
    TapeContext ctx;
    Var logits = model.gnn->forward(ctx, nf, ef, s.sub.graph);
    Var loss = ctx.tape().bce_with_logits(logits, labels);
    opt.zero_grad();
    ctx.backward(loss);
    opt.step();
    activation_floats = ctx.tape().activation_floats();
    peak_floats = ctx.tape().peak_floats();
    benchmark::DoNotOptimize(loss);
  }
  state.counters["event_vertices"] = static_cast<double>(e.num_hits());
  state.counters["activation_MB"] =
      static_cast<double>(activation_floats) * 4.0 / 1e6;
  state.counters["tape_peak_MB"] = static_cast<double>(peak_floats) * 4.0 / 1e6;
}
BENCHMARK(BM_IgnnShadowStep)->Arg(2)->Arg(5)->Arg(10)->Iterations(5)
    ->Unit(benchmark::kMillisecond);

/// Depth scaling of the IGNN itself.
void BM_IgnnLayers(benchmark::State& state) {
  Event e = event_of_scale(0.03);
  GnnModel model(bench_gnn(e.node_features.cols(), e.edge_features.cols(),
                           static_cast<std::size_t>(state.range(0))),
                 1);
  for (auto _ : state) {
    auto scores = model.gnn->predict(e.node_features, e.edge_features,
                                     e.graph);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_IgnnLayers)->Arg(2)->Arg(4)->Arg(8)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  return trkx::gb_json_main(argc, argv, "ignn");
}

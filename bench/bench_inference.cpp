// Ablation A9: end-to-end inference cost of the five-stage pipeline —
// the deployment-side metric (events/second and per-stage share) that
// complements the paper's training-side Figure 3.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_gb_json.hpp"

#include "detector/presets.hpp"
#include "pipeline/graph_construction.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/track_fit.hpp"

namespace trkx {
namespace {

struct Fixture {
  DetectorConfig detector;
  std::vector<Event> events;
  std::unique_ptr<TrackingPipeline> pipeline;

  explicit Fixture(double particles) {
    detector.mean_particles = particles;
    Rng rng(static_cast<std::uint64_t>(particles) + 9);
    std::vector<Event> train;
    for (int i = 0; i < 2; ++i) {
      Rng er = rng.split();
      train.push_back(generate_event(detector, er));
    }
    for (int i = 0; i < 3; ++i) {
      Rng er = rng.split();
      events.push_back(generate_event(detector, er));
    }
    PipelineConfig cfg;
    cfg.embedding.epochs = 2;
    cfg.filter.epochs = 2;
    cfg.gnn.hidden_dim = 32;
    cfg.gnn.num_layers = 4;
    cfg.gnn.mlp_hidden = 1;
    cfg.gnn_train.epochs = 1;
    cfg.gnn_train.batch_size = 128;
    cfg.gnn_train.shadow = {.depth = 2, .fanout = 4};
    cfg.gnn_train.evaluate_every_epoch = false;
    cfg.use_learned_graphs = false;
    pipeline = std::make_unique<TrackingPipeline>(
        detector.node_feature_dim, detector.edge_feature_dim, cfg);
    pipeline->fit(train, {train.back()});
  }
};

Fixture& fixture_for(double particles) {
  static std::map<double, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(particles);
  if (it == cache.end())
    it = cache.emplace(particles, std::make_unique<Fixture>(particles)).first;
  return *it->second;
}

void BM_PipelineReconstruct(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<double>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const PipelineOutput out =
        f.pipeline->reconstruct(f.events[i++ % f.events.size()]);
    benchmark::DoNotOptimize(out);
  }
  state.counters["avg_hits"] = static_cast<double>(f.events[0].num_hits());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineReconstruct)->Arg(30)->Arg(100)->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_GnnInferenceOnly(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<double>(state.range(0)));
  const Event& e = f.events[0];
  for (auto _ : state) {
    auto scores = f.pipeline->gnn().gnn->predict(e.node_features,
                                                 e.edge_features, e.graph);
    benchmark::DoNotOptimize(scores);
  }
  state.counters["edges"] = static_cast<double>(e.num_edges());
}
BENCHMARK(BM_GnnInferenceOnly)->Arg(30)->Arg(100)->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void BM_TrackBuildOnly(benchmark::State& state) {
  Fixture& f = fixture_for(100.0);
  const Event& e = f.events[0];
  const auto scores = f.pipeline->gnn().gnn->predict(e.node_features,
                                                     e.edge_features, e.graph);
  TrackBuildConfig cfg;
  for (auto _ : state) {
    auto tracks = build_tracks(e, scores, cfg);
    benchmark::DoNotOptimize(tracks);
  }
}
BENCHMARK(BM_TrackBuildOnly)->Iterations(50)->Unit(benchmark::kMicrosecond);

void BM_TrackFitOnly(benchmark::State& state) {
  Fixture& f = fixture_for(100.0);
  const Event& e = f.events[0];
  const auto scores = f.pipeline->gnn().gnn->predict(e.node_features,
                                                     e.edge_features, e.graph);
  const auto tracks = build_tracks(e, scores, TrackBuildConfig{});
  for (auto _ : state) {
    for (const auto& t : tracks) {
      auto fit = fit_track(e, t, f.detector.b_field);
      benchmark::DoNotOptimize(fit);
    }
  }
  state.counters["tracks"] = static_cast<double>(tracks.size());
}
BENCHMARK(BM_TrackFitOnly)->Iterations(50)->Unit(benchmark::kMicrosecond);

// Stage 2 alone: build_frnn_graph on a learned embedding, as
// rebuild_event_graph calls it. Arg 0 is the serving shape of perfbench's
// serve-steady replica: Ex3 scale-0.015 events within 3 % of 193 hits,
// the default 4-d embedding trained for 8 epochs on 4 of them, radius
// 0.4. Arg 1 is an Ex3 scale-1 event (~12.8K hits) through the same
// embedding.
struct FrnnFixture {
  std::vector<Matrix> points;
  std::vector<std::vector<std::uint32_t>> layers;
  FrnnConfig config;

  FrnnFixture() {
    const DetectorConfig serving = ex3_spec(0.015).detector;
    Rng rng(23);
    auto served_size = [&] {
      for (;;) {
        Rng er = rng.split();
        Event e = generate_event(serving, er);
        if (std::abs(static_cast<double>(e.num_hits()) - 193.0) <= 0.03 * 193)
          return e;
      }
    };
    std::vector<Event> train;
    for (int i = 0; i < 4; ++i) train.push_back(served_size());
    EmbeddingModel embedding(train[0].node_features.cols(), EmbeddingConfig{});
    embedding.train(train);
    Rng fr = rng.split();
    for (const Event& e :
         {served_size(), generate_event(ex3_spec(1.0).detector, fr)}) {
      points.push_back(embedding.embed(e.node_features));
      std::vector<std::uint32_t>& l = layers.emplace_back();
      for (const Hit& h : e.hits) l.push_back(h.layer);
    }
    config.radius = 0.4f;
  }
};

template <auto build>
void run_frnn(benchmark::State& state) {
  static const FrnnFixture f;
  const auto i = static_cast<std::size_t>(state.range(0));
  std::size_t edges = 0;
  for (auto _ : state) {
    const Graph g = build(f.points[i], f.config, f.layers[i]);
    edges = g.num_edges();
    benchmark::DoNotOptimize(g);
  }
  state.counters["hits"] = static_cast<double>(f.points[i].rows());
  state.counters["edges"] = static_cast<double>(edges);
}

void BM_FrnnGraph(benchmark::State& state) {
  run_frnn<build_frnn_graph>(state);
}
BENCHMARK(BM_FrnnGraph)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The O(n²) oracle at the serving shape, as the reference point.
void BM_FrnnGraphBruteForce(benchmark::State& state) {
  run_frnn<build_frnn_graph_bruteforce>(state);
}
BENCHMARK(BM_FrnnGraphBruteForce)->Arg(0)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  return trkx::gb_json_main(argc, argv, "inference");
}

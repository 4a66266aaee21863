// Ablation A2: ShaDow sampler implementations (paper §III-C, Figure 2).
//
//   reference — Algorithm 2, one batch at a time (per-vertex walks)
//   matrix    — matrix-based sampling, one batch per call
//   bulk-k    — matrix-based sampling, k batches stacked per call (Eq. 1)
//
// Run on an Ex3-like event graph. Counters report the split between the
// fused draw (sample_ms) and the one-pass component assembly (extract_ms)
// for the matrix paths.

#include <benchmark/benchmark.h>

#include "bench_gb_json.hpp"

#include "detector/presets.hpp"
#include "sampling/matrix_shadow.hpp"
#include "sampling/shadow.hpp"

namespace trkx {
namespace {

const Event& test_event() {
  static const Event event = [] {
    DatasetSpec spec = ex3_spec(0.15);  // ~2k vertices
    Rng rng(5);
    return generate_event(spec.detector, rng);
  }();
  return event;
}

std::vector<std::vector<std::uint32_t>> batches_for(const Event& e,
                                                    std::size_t batch_size,
                                                    std::size_t count) {
  Rng rng(17);
  auto all = make_minibatches(e.num_hits(), batch_size, rng);
  all.resize(std::min(count, all.size()));
  return all;
}

void BM_ShadowReference(benchmark::State& state) {
  const Event& e = test_event();
  const auto batches = batches_for(e, 256, 4);
  ShadowSampler sampler(e.graph, {.depth = 3, .fanout = 6});
  Rng rng(23);
  std::size_t vertices = 0;
  for (auto _ : state) {
    for (const auto& b : batches) {
      ShadowSample s = sampler.sample(b, rng);
      vertices += s.sub.graph.num_vertices();
      benchmark::DoNotOptimize(s);
    }
  }
  state.counters["sampled_vertices_per_iter"] =
      static_cast<double>(vertices) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ShadowReference)->Iterations(10)->Unit(benchmark::kMillisecond);

void BM_ShadowMatrixPerBatch(benchmark::State& state) {
  const Event& e = test_event();
  const auto batches = batches_for(e, 256, 4);
  MatrixShadowSampler sampler(e.graph, {.depth = 3, .fanout = 6});
  Rng rng(23);
  BulkSampleStats stats;
  for (auto _ : state) {
    for (const auto& b : batches) {
      ShadowSample s = sampler.sample(b, rng, &stats);
      benchmark::DoNotOptimize(s);
    }
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["sample_ms"] = stats.sample_seconds * 1e3 / iters;
  state.counters["extract_ms"] = stats.extract_seconds * 1e3 / iters;
}
BENCHMARK(BM_ShadowMatrixPerBatch)->Iterations(10)->Unit(benchmark::kMillisecond);

void BM_ShadowMatrixBulk(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const Event& e = test_event();
  const auto batches = batches_for(e, 256, 4);
  MatrixShadowSampler sampler(e.graph, {.depth = 3, .fanout = 6});
  Rng rng(23);
  BulkSampleStats stats;
  for (auto _ : state) {
    // Sample all 4 batches in chunks of k.
    for (std::size_t i = 0; i < batches.size(); i += k) {
      std::vector<std::vector<std::uint32_t>> chunk(
          batches.begin() + static_cast<std::ptrdiff_t>(i),
          batches.begin() +
              static_cast<std::ptrdiff_t>(std::min(i + k, batches.size())));
      auto s = sampler.sample_bulk(chunk, rng, &stats);
      benchmark::DoNotOptimize(s);
    }
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["sample_ms"] = stats.sample_seconds * 1e3 / iters;
  state.counters["extract_ms"] = stats.extract_seconds * 1e3 / iters;
}
BENCHMARK(BM_ShadowMatrixBulk)->Arg(1)->Arg(2)->Arg(4)->Iterations(10)
    ->Unit(benchmark::kMillisecond);

/// Sampler scaling with fanout/depth (cost drivers of the receptive field).
void BM_ShadowFanout(benchmark::State& state) {
  const Event& e = test_event();
  const auto batches = batches_for(e, 256, 1);
  MatrixShadowSampler sampler(
      e.graph, {.depth = 3,
                .fanout = static_cast<std::size_t>(state.range(0))});
  Rng rng(29);
  for (auto _ : state) {
    auto s = sampler.sample_bulk(batches, rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ShadowFanout)->Arg(2)->Arg(4)->Arg(8)->Iterations(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  return trkx::gb_json_main(argc, argv, "sampling");
}

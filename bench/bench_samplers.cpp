// Ablation A6: the sampler taxonomy of §II-B — node-wise (GraphSAGE
// family), layer-wise (LADIES family), and subgraph (ShaDow) sampling —
// compared on sampling cost, receptive-field size, and edge coverage on
// an Ex3-like event graph.
//
// With --json-out <path> the per-benchmark times and
// counters are also written as a BENCH_samplers.json artifact in the
// unified schema validated by scripts/check_bench_json.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_gb_json.hpp"
#include "detector/presets.hpp"
#include "sampling/layerwise.hpp"
#include "sampling/matrix_shadow.hpp"
#include "sampling/nodewise.hpp"
#include "sampling/shadow.hpp"

namespace trkx {
namespace {

const Event& test_event() {
  static const Event event = [] {
    DatasetSpec spec = ex3_spec(0.15);
    Rng rng(5);
    return generate_event(spec.detector, rng);
  }();
  return event;
}

std::vector<std::uint32_t> one_batch(const Event& e) {
  Rng rng(17);
  return make_minibatches(e.num_hits(), 256, rng).front();
}

void record_sample(benchmark::State& state, const ShadowSample& s) {
  state.counters["vertices"] = static_cast<double>(s.sub.graph.num_vertices());
  state.counters["edges"] = static_cast<double>(s.sub.graph.num_edges());
}

void BM_FamilyShadow(benchmark::State& state) {
  const Event& e = test_event();
  const auto batch = one_batch(e);
  ShadowSampler sampler(e.graph,
                        {.depth = static_cast<std::size_t>(state.range(0)),
                         .fanout = 6});
  Rng rng(23);
  ShadowSample last;
  for (auto _ : state) {
    last = sampler.sample(batch, rng);
    benchmark::DoNotOptimize(last);
  }
  record_sample(state, last);
}
BENCHMARK(BM_FamilyShadow)->Arg(2)->Arg(3)->Iterations(20)
    ->Unit(benchmark::kMillisecond);

void BM_FamilyNodewise(benchmark::State& state) {
  const Event& e = test_event();
  const auto batch = one_batch(e);
  std::vector<std::size_t> fanouts(static_cast<std::size_t>(state.range(0)),
                                   6);
  NodewiseSampler sampler(e.graph, {.fanouts = fanouts});
  Rng rng(23);
  ShadowSample last;
  for (auto _ : state) {
    last = sampler.sample(batch, rng);
    benchmark::DoNotOptimize(last);
  }
  record_sample(state, last);
}
BENCHMARK(BM_FamilyNodewise)->Arg(2)->Arg(3)->Iterations(20)
    ->Unit(benchmark::kMillisecond);

void BM_FamilyLayerwise(benchmark::State& state) {
  const Event& e = test_event();
  const auto batch = one_batch(e);
  LayerwiseSampler sampler(
      e.graph, {.depth = static_cast<std::size_t>(state.range(0)),
                .budget = 512});
  Rng rng(23);
  ShadowSample last;
  for (auto _ : state) {
    last = sampler.sample(batch, rng);
    benchmark::DoNotOptimize(last);
  }
  record_sample(state, last);
}
BENCHMARK(BM_FamilyLayerwise)->Arg(2)->Arg(3)->Iterations(20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  return trkx::gb_json_main(argc, argv, "samplers");
}

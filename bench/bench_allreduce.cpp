// Ablation A1: separate vs coalesced gradient all-reduce (paper §III-D).
//
// The Interaction GNN holds dozens of small f×f parameter matrices (one
// per MLP layer); the baseline DDP issues one all-reduce per matrix, ours
// flattens them into one call. These benchmarks measure the real
// shared-memory runtime (per-call synchronisation costs) across rank and
// matrix counts; the analytically modelled NVLink times are reported as
// counters.

// Alongside the google-benchmark table, main() dumps the global metrics
// registry (allreduce.{per_tensor,coalesced}.{calls,bytes} counters fed by
// synchronize_gradients) to allreduce.metrics.json so the perf trajectory
// can track the per-tensor vs coalesced call pattern across PRs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_gb_json.hpp"
#include "dist/communicator.hpp"
#include "dist/gradient_sync.hpp"
#include "gnn/interaction_gnn.hpp"
#include "obs/metrics.hpp"

namespace trkx {
namespace {

/// Build a store shaped like an IGNN with `layers` message-passing layers
/// of hidden size `f` (2 MLPs per layer plus encoders/classifier).
ParameterStore ignn_like_store(std::size_t layers, std::size_t f) {
  ParameterStore s;
  std::size_t id = 0;
  auto mlp = [&](std::size_t in) {
    // Appended, not "w" + std::to_string(id): GCC 12's -Wrestrict
    // misreads that overload's insert at -O3.
    const std::string n = std::to_string(id++);
    s.create(std::string("w").append(n), in, f);
    s.create(std::string("b").append(n), 1, f);
  };
  mlp(14);      // node encoder
  mlp(8);       // edge encoder
  for (std::size_t l = 0; l < layers; ++l) {
    mlp(6 * f);  // edge MLP
    mlp(4 * f);  // node MLP
  }
  mlp(f);  // classifier
  return s;
}

void run_sync(benchmark::State& state, SyncStrategy strategy) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  DistRuntime rt(ranks);
  std::vector<ParameterStore> stores;
  for (int r = 0; r < ranks; ++r)
    stores.push_back(ignn_like_store(layers, 64));
  for (auto& s : stores)
    for (auto& p : s.params()) p.grad.fill(1.0f);

  for (auto _ : state) {
    rt.run([&](Communicator& comm) {
      synchronize_gradients(comm, stores[static_cast<std::size_t>(comm.rank())],
                            strategy);
    });
  }
  const CommStats agg = rt.aggregate_stats();
  state.counters["calls_per_iter"] = static_cast<double>(
      agg.all_reduce_calls / std::max<std::size_t>(1, state.iterations()));
  state.counters["modeled_us_per_iter"] =
      agg.modeled_seconds * 1e6 / static_cast<double>(state.iterations());
  state.counters["params"] =
      static_cast<double>(stores[0].total_size());
}

void BM_AllReducePerTensor(benchmark::State& state) {
  run_sync(state, SyncStrategy::kPerTensor);
}
void BM_AllReduceCoalesced(benchmark::State& state) {
  run_sync(state, SyncStrategy::kCoalesced);
}

BENCHMARK(BM_AllReducePerTensor)
    ->ArgsProduct({{2, 4}, {2, 8}})
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllReduceCoalesced)
    ->ArgsProduct({{2, 4}, {2, 8}})
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

/// Raw all-reduce bandwidth across buffer sizes (single call).
void BM_AllReduceBuffer(benchmark::State& state) {
  const int ranks = 4;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  DistRuntime rt(ranks);
  std::vector<std::vector<float>> bufs(ranks, std::vector<float>(n, 1.0f));
  for (auto _ : state) {
    rt.run([&](Communicator& comm) {
      comm.all_reduce_sum(std::span<float>(
          bufs[static_cast<std::size_t>(comm.rank())].data(), n));
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_AllReduceBuffer)->Range(1 << 10, 1 << 20)
    ->Iterations(300)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace trkx

int main(int argc, char** argv) {
  const int rc = trkx::gb_json_main(
      argc, argv, "allreduce", [](trkx::BenchJsonWriter& json) {
        // Carry the registry's call-pattern counters into the artifact so
        // the trajectory tracks per-tensor vs coalesced across PRs.
        const auto dump = trkx::MetricsRegistry::global().dump();
        auto& s = json.series("allreduce.registry");
        s.param("source", "metrics_registry");
        for (const auto& [name, value] : dump.counters)
          if (name.rfind("allreduce.", 0) == 0)
            s.metric(name, static_cast<double>(value));
      });
  const char* path = "allreduce.metrics.json";
  trkx::MetricsRegistry::global().write_json(path);
  std::printf("metrics written to %s\n", path);
  return rc;
}

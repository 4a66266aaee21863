// Shared main() body for google-benchmark binaries that emit the unified
// bench JSON artifact (bench_json.hpp).
//
// Usage — a gb bench defines its BENCHMARK()s and then:
//
//   int main(int argc, char** argv) {
//     return trkx::gb_json_main(argc, argv, "sampling");
//   }
//
// gb_json_main peels --json-out off the arg list before google-benchmark
// validates it, runs the selected benchmarks under a capturing console
// reporter, and — when --json-out is set — writes one
// series per benchmark: the median per-iteration real time in
// milliseconds plus every user counter. This is what makes every
// microbenchmark a citizen of the perf trajectory (scripts/trkx-bench,
// scripts/check_regression.py) with zero per-bench plumbing.

#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"

namespace trkx {

/// Console reporter that additionally captures every per-repetition run
/// so the JSON artifact can carry medians instead of a single sample.
class GbCaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::vector<double> real_time_ms;        // per repetition
    std::map<std::string, double> counters;  // last repetition wins
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      Captured& c = captured_[run.benchmark_name()];
      // Adjusted real time is per-iteration, in the run's time unit;
      // normalise to milliseconds.
      const double t =
          run.GetAdjustedRealTime() *
          benchmark::GetTimeUnitMultiplier(benchmark::kMillisecond) /
          benchmark::GetTimeUnitMultiplier(run.time_unit);
      c.real_time_ms.push_back(t);
      for (const auto& [name, counter] : run.counters)
        c.counters[name] = counter.value;
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::map<std::string, Captured>& captured() const {
    return captured_;
  }

 private:
  std::map<std::string, Captured> captured_;
};

inline double gb_median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The shared main() body described in the header comment. `extra_series`
/// (optional) lets a bench append non-gb series (e.g. registry-derived
/// counters) before the artifact is written.
inline int gb_json_main(
    int argc, char** argv, const std::string& bench_name,
    const std::function<void(BenchJsonWriter&)>& extra_series = {}) {
  // Peel our flag off before google-benchmark validates the arg list.
  std::string json_out;
  std::vector<char*> keep;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json-out=", 0) == 0) {
      json_out = a.substr(11);
    } else if (a == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      keep.push_back(argv[i]);
    }
  }
  int kept = static_cast<int>(keep.size());
  benchmark::Initialize(&kept, keep.data());
  if (benchmark::ReportUnrecognizedArguments(kept, keep.data())) return 1;
  set_run_tool("bench_" + bench_name);
  GbCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_out.empty()) return 0;
  BenchJsonWriter json(bench_name);
  for (const auto& [name, run] : reporter.captured()) {
    auto& s = json.series(name);
    s.param("benchmark", name);
    s.metric("real_time_ms_median", gb_median(run.real_time_ms));
    for (const auto& [cname, value] : run.counters) s.metric(cname, value);
  }
  if (extra_series) extra_series(json);
  json.write(json_out);
  std::printf("bench JSON written to %s\n", json_out.c_str());
  return 0;
}

}  // namespace trkx

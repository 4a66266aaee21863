#pragma once

#include <string>

namespace trkx {

class ArgParser;

/// Shared `--trace-out` / `--metrics-out` / `--timeseries-out` handling
/// for examples and bench mains. Construction reads the flags (with the
/// TRKX_TRACE / TRKX_METRICS / TRKX_TIMESERIES environment variables as
/// fallbacks), registers the binary name as the RunManifest tool, starts
/// the global TraceSession when a trace is requested, and starts the
/// background MetricsSnapshotter (cadence `--timeseries-period-ms`,
/// default 200) when a time series is requested;
/// destruction stops the snapshotter and writes the requested files,
/// each stamped with the RunManifest. Near-zero cost when no flag is
/// given.
///
///   int main(int argc, char** argv) {
///     ArgParser args(argc, argv);
///     ObsExport obs(args);
///     ... run ...
///   }  // trace.json / metrics.json / timeseries.jsonl written here
class ObsExport {
 public:
  explicit ObsExport(const ArgParser& args);
  /// Explicit paths (empty = disabled), for callers without an ArgParser.
  ObsExport(std::string trace_path, std::string metrics_path,
            std::string timeseries_path = "");
  ~ObsExport();

  const std::string& trace_path() const { return trace_path_; }
  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& timeseries_path() const { return timeseries_path_; }
  bool tracing() const { return !trace_path_.empty(); }

  /// Write any requested files now (also disarms the destructor write).
  void flush();

  ObsExport(const ObsExport&) = delete;
  ObsExport& operator=(const ObsExport&) = delete;

 private:
  void arm();
  std::string trace_path_;
  std::string metrics_path_;
  std::string timeseries_path_;
  int timeseries_period_ms_ = 200;
  bool flushed_ = false;
};

}  // namespace trkx

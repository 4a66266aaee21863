#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/parallel_guard.hpp"

namespace trkx {

/// Background sampler that turns the point-in-time metrics registry into
/// a time series: every `period_ms` it merges the lock-free registry
/// (counters, gauges, histogram percentiles), refreshes process gauges
/// (RSS / peak RSS / page faults), runs any registered sampler hooks
/// (gauges from layers obs cannot include), derives
/// per-counter rates since the previous tick, and appends one JSONL line:
///
///   {"manifest": {...}}                                  <- first line
///   {"t_ms": 412, "counters": {...}, "gauges": {...},
///    "rates": {"pipeline.filter.events": 83041.2, ...},
///    "histograms": {"epoch.wall_s": {"count":3,"p50":...,"p95":...}}}
///
/// The sampling thread only ever *reads* the registry (relaxed atomic
/// merges), so instrumented hot paths are unaffected; scrape cost is
/// proportional to the number of registered metrics, not to event rate.
class MetricsSnapshotter {
 public:
  struct Options {
    std::string path;       ///< JSONL output file (required)
    int period_ms = 200;    ///< sampling cadence
    bool manifest_header = true;  ///< write the manifest as line 1
  };

  MetricsSnapshotter();
  ~MetricsSnapshotter();  ///< stops and flushes if still running

  /// Open the stream, write the manifest header, start the thread.
  /// No-op (with a warning) if already running.
  void start(const Options& options);
  /// Take one final sample, join the thread, close the stream. If the
  /// sampling thread died on an exception, it is rethrown here (on the
  /// caller's thread) after the stream is closed — the thread entry point
  /// itself never lets one escape (that would be std::terminate).
  void stop();
  bool running() const;

  /// Take one sample synchronously (also what the thread calls). Usable
  /// without start() for deterministic tests via an external stream.
  void sample_to(std::ostream& os);

  /// Number of samples written since start().
  std::uint64_t samples() const;

  /// Register a named hook run before every sample; hooks publish gauges
  /// into the metrics registry (the snapshotter then reads them like any
  /// other metric). Layered subsystems the obs module cannot include
  /// bridge in through this. Re-registering a name replaces the hook.
  void add_sampler(const std::string& name, std::function<void()> fn);

  /// Refresh process.{rss_bytes,peak_rss_bytes,minor_faults,major_faults}
  /// gauges from the OS (no-ops to 0 on unsupported platforms). Called on
  /// every tick; exposed for one-shot dumps and tests.
  static void sample_process_gauges();

  /// Process-global instance driven by ObsExport / TRKX_TIMESERIES.
  static MetricsSnapshotter& global();

  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

 private:
  void run_loop();
  void write_line(std::ostream& os);

  mutable Mutex mutex_;
  CondVar wake_;
  bool running_ TRKX_GUARDED_BY(mutex_) = false;
  bool stop_requested_ TRKX_GUARDED_BY(mutex_) = false;
  Options options_ TRKX_GUARDED_BY(mutex_);
  std::unique_ptr<std::ostream> out_ TRKX_GUARDED_BY(mutex_);
  std::thread thread_;
  std::uint64_t samples_ TRKX_GUARDED_BY(mutex_) = 0;
  std::uint64_t start_ns_ TRKX_GUARDED_BY(mutex_) = 0;
  /// Previous counter values + timestamp for rate derivation.
  std::map<std::string, std::uint64_t> last_counters_
      TRKX_GUARDED_BY(mutex_);
  std::uint64_t last_sample_ns_ TRKX_GUARDED_BY(mutex_) = 0;
  std::map<std::string, std::function<void()>> samplers_
      TRKX_GUARDED_BY(mutex_);
  /// Captures an exception thrown on the sampling thread; stop() rethrows.
  ExceptionBarrier thread_barrier_;
};

}  // namespace trkx

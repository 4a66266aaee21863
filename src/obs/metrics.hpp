#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.hpp"

namespace trkx {

/// Number of per-thread shards each metric keeps. Threads map onto shards
/// by dense thread id modulo this count; recording is a relaxed atomic op
/// on the calling thread's shard, so OpenMP regions and DDP rank threads
/// record without serialising on a shared cache line. Reads merge shards.
inline constexpr std::size_t kMetricShards = 32;

/// Monotonically increasing count (events, calls, bytes). Lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1);
  std::uint64_t value() const;  ///< merged over shards
  const std::string& name() const { return name_; }
  void reset();

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  Cell cells_[kMetricShards];
};

/// Last-written value (loss, learning rate, precision). Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void reset() { set(0.0); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with per-thread shards: observe() is a handful
/// of relaxed atomic ops on the calling thread's shard; snapshot() merges
/// shards and derives mean / percentile estimates from the buckets.
class Histogram {
 public:
  /// `bounds` are ascending bucket upper edges; an implicit +inf overflow
  /// bucket is appended. Estimated percentiles interpolate within buckets,
  /// so resolution is set by the bucket spacing.
  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
    std::vector<double> bounds;          ///< bucket upper edges (no +inf)
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 counts

    double mean() const;
    /// p in [0,100], interpolated from the bucket counts (clamped to the
    /// observed min/max so estimates never leave the data range).
    double percentile(double p) const;
  };
  Snapshot snapshot() const;

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }
  void reset();

  /// Log-spaced bounds: `per_decade` edges per factor of 10 from `lo` to
  /// `hi` inclusive. The registry's default timing buckets use
  /// exponential_bounds(1e-6, 1e3, 3) — 1 µs to ~17 min in ~2.15× steps.
  static std::vector<double> exponential_bounds(double lo, double hi,
                                                int per_decade);

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
  };
  std::string name_;
  std::vector<double> bounds_;
  Shard shards_[kMetricShards];
};

/// Process-wide registry of named metrics. Creation (the first call for a
/// given name) takes a mutex; the returned references are stable for the
/// registry's lifetime, so hot paths can look up once and record forever.
/// reset() zeroes values but never invalidates references.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Default timing buckets (seconds, log-spaced 1µs..1000s).
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Point-in-time value dump of every registered metric, for consumers
  /// that need the data rather than the serialisation (the time-series
  /// snapshotter, tests). Names come out sorted (std::map order).
  struct Dump {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  Dump dump() const;

  /// Flat JSON dump: {"manifest":{...}?,"counters":{...},"gauges":{...},
  /// "histograms":{...}} — histograms carry count/sum/min/max/mean and
  /// p50/p90/p95/p99 estimates. `with_manifest` prepends the RunManifest.
  void write_json(std::ostream& os, bool with_manifest = false) const;
  void write_json(const std::string& path, bool with_manifest = false) const;

  void reset();

  /// The process-global registry (leaked on purpose: safe to record into
  /// from any thread at any point of static teardown).
  static MetricsRegistry& global();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TRKX_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TRKX_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TRKX_GUARDED_BY(mutex_);
};

/// Shorthand for MetricsRegistry::global().
MetricsRegistry& metrics();

}  // namespace trkx

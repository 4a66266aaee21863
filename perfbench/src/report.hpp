// Result collection for the train-and-serve benchmark: named metrics with
// units, pass/fail checks, operation accounting, exact values for the
// determinism guard, and the in-memory span log of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t);

/// Linear-interpolated percentile, p in [0, 1]. Empty input gives 0.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set size of this process in MB (VmHWM) since the last
/// reset_peak_rss(), or since start.
double peak_rss_mb();
/// Restart the peak-RSS watermark at the current resident size, so each
/// phase of a run gets its own peak.
void reset_peak_rss();
/// CPU time consumed by every thread of this process, in seconds.
double process_cpu_seconds();

/// One span of a traced run. Times are seconds from the run's origin;
/// `parent` is 0 for a root span. Spans of one request share `group`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Spans recorded by the benchmark around its calls into each layer. They
/// stay in memory and are written once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::uint64_t add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t group = 0);
  /// Same, with times already relative to the origin.
  std::uint64_t add_at(const std::string& name, double start_s, double end_s,
                       std::uint64_t parent = 0, std::uint64_t group = 0);
  /// Set the end of a span opened before its end was known.
  void finish(std::uint64_t id, Clock::time_point end);

  /// Duration of `parent` not covered by its direct children, in seconds.
  double unattributed_s(std::uint64_t parent) const;
  std::size_t size() const { return spans_.size(); }
  /// Chrome trace-event JSON ("X" events, one track per group).
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces. `ok()` is false as soon as one
/// check failed; the benchmark then exits non-zero without a result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A value that must repeat exactly for a fixed seed and build.
  void exact(const std::string& name, double value);
  void check(const std::string& name, bool ok, const std::string& detail);
  void note(const std::string& line);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool ok() const;
  /// Human-readable lines, then one `RESULT {...}` JSON line.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> exact_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

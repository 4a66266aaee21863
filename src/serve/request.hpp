#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <utility>

#include "pipeline/pipeline.hpp"
#include "serve/error.hpp"

namespace trkx::serve {

/// Admission priority class. Under sustained overload the degradation
/// ladder sheds kLow first; kHigh is shed only by a full queue.
enum class Priority : int { kLow = 0, kNormal = 1, kHigh = 2 };

inline const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

/// Wall-clock budget for one request, propagated through all five stages.
/// A default-constructed Deadline is unbounded; after_ms() anchors one at
/// "now + budget". The inter-stage checks call expired() — steady_clock
/// so a wall-clock step cannot spuriously abandon live requests.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  static Deadline after_ms(std::int64_t ms) {
    Deadline d;
    if (ms > 0) {
      d.bounded_ = true;
      d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    }
    return d;
  }
  static Deadline at(Clock::time_point when) {
    Deadline d;
    d.bounded_ = true;
    d.at_ = when;
    return d;
  }

  bool bounded() const { return bounded_; }
  bool expired() const { return bounded_ && Clock::now() >= at_; }
  /// Milliseconds past the deadline (0 when not expired / unbounded).
  double overshoot_ms() const {
    if (!bounded_) return 0.0;
    const auto d = Clock::now() - at_;
    return d.count() <= 0
               ? 0.0
               : std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  bool bounded_ = false;
  Clock::time_point at_{};
};

/// The request-path stages are the pipeline's (pipeline/pipeline.hpp).
using trkx::kNumStages;
using trkx::Stage;
using trkx::stage_name;

/// What one request produced: the reconstructed tracks plus enough
/// telemetry (per-stage seconds, degradation flags, replica generation)
/// for the caller to reason about the latency it observed.
struct ServeResult {
  std::vector<TrackCandidate> tracks;
  std::vector<FittedTrack> fits;      ///< empty when fit was skipped
  double stage_seconds[kNumStages] = {0, 0, 0, 0, 0};
  /// Submit-to-completion wall time (queue wait + all stage attempts),
  /// measured by the worker — the number the serve.latency.ms histogram
  /// and the serving bench percentiles are built from.
  double latency_seconds = 0;
  int degrade_level = 0;    ///< ladder level the request ran at
  bool fit_skipped = false; ///< degraded: fit stage was shed
  std::uint64_t replica_generation = 0;
  std::uint32_t retries = 0;  ///< stage attempts beyond the first

  double total_seconds() const {
    double t = 0;
    for (double s : stage_seconds) t += s;
    return t;
  }
};

/// One in-flight request: the event payload, its admission metadata, and
/// the promise the worker fulfils. Requests are moved (never copied)
/// through the admission queue.
struct Request {
  std::uint64_t id = 0;
  Priority priority = Priority::kNormal;
  Deadline deadline;
  Deadline::Clock::time_point submitted_at{};
  Event event;
  std::promise<ServeResult> result;

  Request() = default;
  Request(std::uint64_t id, Priority priority, Deadline deadline, Event event)
      : id(id),
        priority(priority),
        deadline(deadline),
        submitted_at(Deadline::Clock::now()),
        event(std::move(event)) {}
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;
};

}  // namespace trkx::serve

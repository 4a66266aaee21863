#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace trkx {

/// RAII phase scope that feeds all three observability sinks at once:
///   1. the per-epoch PhaseTimers bucket behind TrainResult (Figure 3),
///   2. a span in the global TraceSession (Perfetto timeline),
///   3. a `phase.<name>_s` histogram in the global MetricsRegistry
///      (percentiles across the run).
/// `name` must be a string literal: it names the trace span and the
/// Figure 3 phase ("sample", "gather", "train", "allreduce").
class PhaseSpan {
 public:
  PhaseSpan(PhaseTimers& timers, const char* name)
      : timers_(timers), name_(name), scope_(name, "phase") {}
  ~PhaseSpan() {
    const double s = timer_.seconds();
    timers_.add(name_, s);
    metrics().histogram(std::string("phase.") + name_ + "_s").observe(s);
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  PhaseTimers& timers_;
  const char* name_;
  TraceScope scope_;
  WallTimer timer_;
};

}  // namespace trkx

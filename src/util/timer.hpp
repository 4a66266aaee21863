#pragma once

#include <chrono>
#include <map>
#include <string>

#include "util/annotations.hpp"

namespace trkx {

/// Monotonic wall-clock timer.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named time buckets; used by training loops to report the
/// sampling / forward-backward / all-reduce split that Figure 3 plots.
///
/// Thread-safe: add()/get()/merge() may be called concurrently (e.g. from
/// OpenMP regions or DDP rank threads), serialised by an internal mutex.
/// For contention-free accumulation in tight parallel loops, prefer one
/// local PhaseTimers per thread merged once at the end — merge() exists
/// for exactly that pattern. New code should record through the richer
/// src/obs layer (trace spans + metrics histograms); PhaseTimers remains
/// as the per-epoch accumulator behind TrainResult.
class PhaseTimers {
 public:
  PhaseTimers() = default;
  PhaseTimers(const PhaseTimers& other) : buckets_(other.buckets()) {}
  PhaseTimers& operator=(const PhaseTimers& other) {
    if (this != &other) {
      auto copy = other.buckets();
      LockGuard lock(mutex_);
      buckets_ = std::move(copy);
    }
    return *this;
  }

  void add(const std::string& phase, double seconds) {
    LockGuard lock(mutex_);
    buckets_[phase] += seconds;
  }
  double get(const std::string& phase) const {
    LockGuard lock(mutex_);
    auto it = buckets_.find(phase);
    return it == buckets_.end() ? 0.0 : it->second;
  }
  void clear() {
    LockGuard lock(mutex_);
    buckets_.clear();
  }
  /// Snapshot of the buckets (by value: the map may change concurrently).
  std::map<std::string, double> buckets() const {
    LockGuard lock(mutex_);
    return buckets_;
  }
  /// Merge another timer set into this one (summing buckets).
  void merge(const PhaseTimers& other) {
    auto theirs = other.buckets();
    LockGuard lock(mutex_);
    for (const auto& [k, v] : theirs) buckets_[k] += v;
  }

 private:
  mutable Mutex mutex_;
  std::map<std::string, double> buckets_ TRKX_GUARDED_BY(mutex_);
};

}  // namespace trkx

#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/manifest.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_id.hpp"

namespace trkx {

namespace {

std::size_t shard_index() {
  return static_cast<std::size_t>(this_thread_id()) % kMetricShards;
}

/// Relaxed fetch-add for atomic<double> via CAS (portable; the hot path is
/// uncontended because each thread owns its shard).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

// ---------- Counter ----------

void Counter::add(std::uint64_t n) {
  cells_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

// ---------- Histogram ----------

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  TRKX_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  TRKX_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
  for (Shard& s : shards_) {
    s.min.store(std::numeric_limits<double>::infinity());
    s.max.store(-std::numeric_limits<double>::infinity());
    s.buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) s.buckets[b].store(0);
  }
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi,
                                                  int per_decade) {
  TRKX_CHECK(lo > 0.0 && hi > lo && per_decade >= 1);
  std::vector<double> bounds;
  const double step = std::pow(10.0, 1.0 / per_decade);
  for (double b = lo; b <= hi * (1.0 + 1e-12); b *= step) bounds.push_back(b);
  return bounds;
}

void Histogram::observe(double v) {
  Shard& s = shards_[shard_index()];
  const std::size_t b = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(s.sum, v);
  atomic_min(s.min, v);
  atomic_max(s.max, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.bounds = bounds_;
  out.buckets.assign(bounds_.size() + 1, 0);
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, s.min.load(std::memory_order_relaxed));
    mx = std::max(mx, s.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < out.buckets.size(); ++b)
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
  }
  out.min = out.count == 0 ? 0.0 : mn;
  out.max = out.count == 0 ? 0.0 : mx;
  return out;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity());
    s.max.store(-std::numeric_limits<double>::infinity());
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
      s.buckets[b].store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double lo_edge = b == 0 ? min : bounds[b - 1];
    const double hi_edge = b < bounds.size() ? bounds[b] : max;
    const double next = static_cast<double>(seen + buckets[b]);
    if (next >= target) {
      const double frac =
          (target - static_cast<double>(seen)) /
          static_cast<double>(buckets[b]);
      const double est = lo_edge + frac * (hi_edge - lo_edge);
      return std::clamp(est, min, max);
    }
    seen += buckets[b];
  }
  return max;
}

// ---------- MetricsRegistry ----------

Counter& MetricsRegistry::counter(const std::string& name) {
  LockGuard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter(name));  // NOLINT(trkx-naked-new,trkx-hot-alloc): private ctor (friend); first-call registration only
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  LockGuard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(name));  // NOLINT(trkx-naked-new,trkx-hot-alloc): private ctor (friend); first-call registration only
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, Histogram::exponential_bounds(1e-6, 1e3, 3));
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  LockGuard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot)
    slot.reset(  // NOLINT(trkx-naked-new): private ctor (friend)
        new Histogram(name, std::move(bounds)));
  return *slot;
}

MetricsRegistry::Dump MetricsRegistry::dump() const {
  Dump out;
  LockGuard lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.emplace_back(name, c->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    out.histograms.emplace_back(name, h->snapshot());
  return out;
}

void MetricsRegistry::write_json(std::ostream& os, bool with_manifest) const {
  LockGuard lock(mutex_);
  os << "{\n";
  if (with_manifest) {
    os << "  \"manifest\": ";
    RunManifest::collect().write_json(os);
    os << ",\n";
  }
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << json_number(g->value());
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    os << (first ? "" : ",") << "\n    \"" << name << "\": {"
       << "\"count\": " << s.count << ", \"sum\": " << json_number(s.sum)
       << ", \"min\": " << json_number(s.min)
       << ", \"max\": " << json_number(s.max)
       << ", \"mean\": " << json_number(s.mean())
       << ", \"p50\": " << json_number(s.percentile(50))
       << ", \"p90\": " << json_number(s.percentile(90))
       << ", \"p95\": " << json_number(s.percentile(95))
       << ", \"p99\": " << json_number(s.percentile(99)) << ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      if (s.buckets[b] == 0) continue;  // sparse encoding
      os << (bfirst ? "" : ", ") << "{\"le\": "
         << (b < s.bounds.size() ? json_number(s.bounds[b])
                                 : std::string("\"inf\""))
         << ", \"count\": " << s.buckets[b] << "}";
      bfirst = false;
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void MetricsRegistry::write_json(const std::string& path,
                                 bool with_manifest) const {
  std::ofstream os(path);
  TRKX_CHECK_MSG(os.good(), "metrics write_json: cannot open " << path);
  write_json(os, with_manifest);
}

void MetricsRegistry::reset() {
  LockGuard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: threads may record during static teardown.
  static MetricsRegistry* g =
      new MetricsRegistry();  // NOLINT(trkx-naked-new,trkx-hot-alloc): leaked singleton, constructed once
  // Bridge util's fault registry into obs counters. Installed here (not a
  // dedicated TU) because util cannot link obs — the layering runs obs →
  // util — and this TU is referenced by every metrics() user, so the hook
  // is alive before any fault can fire through instrumented code.
  static const bool fault_observer_installed = [] {
    fault::Registry::global().set_observer([](const char* site,
                                              fault::Kind kind) {
      MetricsRegistry& m = MetricsRegistry::global();
      m.counter("fault.injected").add(1);
      m.counter(std::string("fault.injected.") + site).add(1);
      m.counter(std::string("fault.injected.kind.") +
                fault::kind_name(kind)).add(1);
    });
    return true;
  }();
  (void)fault_observer_installed;
  return *g;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace trkx

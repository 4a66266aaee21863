// Tests for the observability layer (src/obs): metrics registry, span
// tracer, PhaseSpan bridge, and the JSON exports.

#include <gtest/gtest.h>

#include <omp.h>

#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/thread_id.hpp"
#include "util/timer.hpp"

namespace trkx {
namespace {

// ---------- thread ids ----------

TEST(ThreadId, DenseAndStable) {
  const int mine = this_thread_id();
  EXPECT_EQ(this_thread_id(), mine);  // stable within a thread
  int other = -1;
  std::thread t([&] { other = this_thread_id(); });
  t.join();
  EXPECT_NE(other, mine);
  EXPECT_GE(other, 0);
}

// ---------- counters ----------

TEST(Metrics, CounterAccumulates) {
  Counter& c = metrics().counter("test.obs.counter_accumulates");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, CounterSameNameSameObject) {
  Counter& a = metrics().counter("test.obs.counter_identity");
  Counter& b = metrics().counter("test.obs.counter_identity");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, CounterConcurrentAddsFromOpenMP) {
  Counter& c = metrics().counter("test.obs.counter_omp");
  c.reset();
  const int n = 100000;
#pragma omp parallel for
  for (int i = 0; i < n; ++i) c.add();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(n));
}

TEST(Metrics, CounterConcurrentAddsFromThreads) {
  Counter& c = metrics().counter("test.obs.counter_threads");
  c.reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(2);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 8u * 10000u * 2u);
}

// ---------- gauges ----------

TEST(Metrics, GaugeLastWriteWins) {
  Gauge& g = metrics().gauge("test.obs.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

// ---------- histograms ----------

TEST(Metrics, HistogramStats) {
  Histogram& h =
      metrics().histogram("test.obs.hist_stats", {1.0, 2.0, 4.0, 8.0});
  h.reset();
  for (double v : {0.5, 1.5, 1.5, 3.0, 7.0, 20.0}) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 33.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 20.0);
  EXPECT_NEAR(s.mean(), 33.5 / 6.0, 1e-12);
  // bucket layout: (-inf,1] (1,2] (2,4] (4,8] (8,inf)
  ASSERT_EQ(s.buckets.size(), 5u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[4], 1u);
}

TEST(Metrics, HistogramPercentilesWithinRange) {
  Histogram& h = metrics().histogram("test.obs.hist_pct");
  h.reset();
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-3);  // 1ms .. 1s
  const Histogram::Snapshot s = h.snapshot();
  const double p50 = s.percentile(50);
  const double p99 = s.percentile(99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p50, s.max);
  EXPECT_LT(p50, p99 + 1e-12);
  // Bucket interpolation is coarse (log-spaced edges), so allow slack.
  EXPECT_NEAR(p50, 0.5, 0.3);
  EXPECT_GT(p99, 0.5);
}

TEST(Metrics, HistogramEmptySnapshot) {
  Histogram& h = metrics().histogram("test.obs.hist_empty", {1.0});
  h.reset();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Metrics, HistogramConcurrentObserve) {
  Histogram& h = metrics().histogram("test.obs.hist_omp", {0.5});
  h.reset();
  const int n = 50000;
#pragma omp parallel for
  for (int i = 0; i < n; ++i) h.observe(i % 2 == 0 ? 0.25 : 0.75);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.buckets[0], static_cast<std::uint64_t>(n / 2));
  EXPECT_EQ(s.buckets[1], static_cast<std::uint64_t>(n / 2));
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.75);
}

TEST(Metrics, ExponentialBoundsShape) {
  const auto b = Histogram::exponential_bounds(1e-3, 1.0, 1);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_NEAR(b[0], 1e-3, 1e-12);
  EXPECT_NEAR(b[3], 1.0, 1e-9);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

// ---------- registry export ----------

TEST(Metrics, WriteJsonContainsEntries) {
  metrics().counter("test.obs.json_counter").add(7);
  metrics().gauge("test.obs.json_gauge").set(2.5);
  metrics().histogram("test.obs.json_hist").observe(0.01);
  std::ostringstream os;
  metrics().write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"test.obs.json_counter\""), std::string::npos);
  EXPECT_NE(s.find("\"test.obs.json_gauge\": 2.5"), std::string::npos);
  EXPECT_NE(s.find("\"test.obs.json_hist\""), std::string::npos);
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
}

// ---------- tracing ----------

TEST(Trace, DisabledByDefaultRecordsNothing) {
  TraceSession session;
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.event_count(), 0u);
}

TEST(Trace, GlobalSpansAcrossThreads) {
  TraceSession& s = TraceSession::global();
  s.clear();
  s.start();
  {
    TRKX_TRACE_SPAN("test.main_span");
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([] { TRKX_TRACE_SPAN("test.worker_span"); });
  for (auto& t : threads) t.join();
  s.stop();
  EXPECT_GE(s.event_count(), 3u);

  std::ostringstream os;
  s.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.main_span\""), std::string::npos);
  EXPECT_NE(json.find("\"test.worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  s.clear();
  EXPECT_EQ(s.event_count(), 0u);
}

TEST(Trace, SpansDroppedWhileStopped) {
  TraceSession& s = TraceSession::global();
  s.clear();
  ASSERT_FALSE(s.enabled());
  {
    TRKX_TRACE_SPAN("test.dropped");
  }
  EXPECT_EQ(s.event_count(), 0u);
}

// ---------- PhaseSpan bridge ----------

TEST(PhaseSpanTest, FeedsTimersAndHistogram) {
  Histogram& h = metrics().histogram("phase.unit_phase_s");
  h.reset();
  PhaseTimers timers;
  {
    PhaseSpan span(timers, "unit_phase");
  }
  EXPECT_GT(timers.get("unit_phase"), 0.0);
  EXPECT_EQ(h.snapshot().count, 1u);
}

}  // namespace
}  // namespace trkx

// Contended-path stress tests, labelled tsan-stress in CMake so the
// tsan-stress leg of scripts/ci_matrix.sh runs them under
// -fsanitize=thread. Each test drives a shared-state component from
// several threads at once: these are the schedules where a missing
// happens-before edge in PrefetchQueue, the obs registry, or
// the DDP gradient sync would surface as a TSan report.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/gradient_sync.hpp"
#include "graph/generators.hpp"
#include "nn/parameter.hpp"
#include "sampling/matrix_shadow.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/annotations.hpp"
#include "util/log.hpp"
#include "util/prefetch.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace trkx {
namespace {

// Keep schedules contended but wall-clock cheap: TSan slows execution
// 5-15x and the CI box may have a single core.
#if defined(__SANITIZE_THREAD__)
constexpr int kIters = 200;
#else
constexpr int kIters = 1000;
#endif

// ---------- PrefetchQueue ----------

TEST(PrefetchStressTest, ConsumerAbandonsMidSequenceRepeatedly) {
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> live_producers{0};
    std::atomic<int> produced{0};
    auto produce = [&](std::size_t i) {
      ++live_producers;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++produced;
      --live_producers;
      return static_cast<int>(i) * 3;
    };
    {
      PrefetchQueue<int> queue(&pool, 4, 64, produce);
      // Consume a prefix only; the destructor must drain every in-flight
      // producer before the callback (and `produced`) go out of scope.
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(queue.get(i), static_cast<int>(i) * 3);
    }
    EXPECT_EQ(live_producers.load(), 0);
    EXPECT_GE(produced.load(), 8);
  }
}

TEST(PrefetchStressTest, PooledBuffersMigrateProducerToConsumer) {
  ThreadPool pool(4);
  const std::size_t n = 96;
  // Producers allocate on pool threads; the consumer frees on the main
  // thread — buffers cross threads the way prefetched batches do.
  auto produce = [](std::size_t i) {
    std::vector<float> v(256 + i);
    for (std::size_t j = 0; j < v.size(); ++j)
      v[j] = static_cast<float>(i + j);
    return v;
  };
  PrefetchQueue<std::vector<float>> queue(&pool, 6, n, produce);
  for (std::size_t i = 0; i < n; ++i) {
    auto v = queue.get(i);
    ASSERT_EQ(v.size(), 256 + i);
    EXPECT_FLOAT_EQ(v[i % v.size()],
                    static_cast<float>(i + i % v.size()));
  }
}

// ---------- Metrics registry ----------

TEST(MetricsStressTest, ConcurrentWritersAndExporters) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, t] {
      Counter& c = reg.counter("stress.count");
      Gauge& g = reg.gauge("stress.gauge");
      Histogram& h = reg.histogram("stress.hist");
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.set(static_cast<double>(t));
        h.observe(1e-4 * (i + 1));
        // Registry lookups race creation of fresh names too.
        reg.counter("stress.count." + std::to_string(i % 7)).add(1);
      }
    });
  }
  std::thread exporter([&reg, &stop] {
    while (!stop.load()) {
      std::ostringstream os;
      reg.write_json(os);
    }
  });
  for (auto& w : writers) w.join();
  stop = true;
  exporter.join();
  EXPECT_EQ(reg.counter("stress.count").value(),
            static_cast<std::uint64_t>(4 * kIters));
  Histogram::Snapshot snap = reg.histogram("stress.hist").snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(4 * kIters));
}

// The flight-recorder schedule: hot paths bump the global registry while
// the snapshotter thread scrapes it into time-series lines and sampler
// hooks are (re)registered concurrently. This is exactly what a training
// run with TRKX_TIMESERIES enabled does.
TEST(MetricsStressTest, SnapshotterRacesWritersAndHookRegistration) {
  MetricsSnapshotter snap;
  std::atomic<bool> stop{false};
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([t, &writers_done] {
      Counter& c = metrics().counter("stress.snap.count");
      Histogram& h = metrics().histogram("stress.snap.hist");
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        h.observe(1e-5 * (i + 1));
        metrics().gauge("stress.snap.g" + std::to_string(t)).set(i);
      }
      ++writers_done;
    });
  }
  std::thread registrar([&snap, &stop] {
    int gen = 0;
    while (!stop.load()) {
      snap.add_sampler("hook", [gen] {
        metrics().gauge("stress.snap.hook").set(gen);
      });
      ++gen;
    }
  });
  std::uint64_t lines = 0;
  while (writers_done.load() < 3 || lines < 5) {
    std::ostringstream os;
    snap.sample_to(os);
    ++lines;
  }
  stop = true;
  for (auto& w : writers) w.join();
  registrar.join();
  EXPECT_GE(snap.samples(), 5u);
  EXPECT_EQ(metrics().counter("stress.snap.count").value(),
            static_cast<std::uint64_t>(3 * kIters));
}

// Witness for the lock order documented in DESIGN.md §6j (and checked
// statically by the trkx-analyze lock-order pass): the snapshotter never
// holds its mutex_ while entering MetricsRegistry — hooks, dump() and
// stream writes all run with the snapshotter lock released. This drives
// both mutexes from every direction at once — full start/stop lifecycle,
// registry writers, a hook that re-enters the registry from the sampling
// thread, control-plane polls, and a synchronous sample_to() — so a
// future nesting in either direction surfaces as a TSan report on this
// schedule instead of a rare production deadlock.
TEST(MetricsStressTest, SnapshotterAndRegistryLockOrderWitness) {
  const std::string path =
      ::testing::TempDir() + "/trkx_lock_order_witness.jsonl";
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load()) {
        metrics().counter("stress.order.count").add(1);
        metrics().gauge("stress.order.gauge").set(1.0);
      }
    });
  }
  for (int round = 0; round < 4; ++round) {
    MetricsSnapshotter snap;
    snap.add_sampler("bridge", [] {
      // Runs on the sampling thread with the snapshotter lock released;
      // re-entering the registry here is the documented (only) direction.
      metrics().gauge("stress.order.hook").set(static_cast<double>(
          metrics().counter("stress.order.count").value()));
    });
    snap.start({.path = path, .period_ms = 1});
    for (int i = 0; i < 50; ++i) {
      // Control plane cycles the snapshotter lock while the sampling
      // thread alternates it against the registry lock...
      (void)snap.running();
      (void)snap.samples();
      snap.add_sampler("bridge2",
                       [] { metrics().gauge("stress.order.hook2").set(1.0); });
      // ...and this thread takes the registry lock on its own.
      std::ostringstream os;
      metrics().write_json(os);
    }
    std::ostringstream os;
    snap.sample_to(os);  // synchronous sample racing the thread's ticks
    snap.stop();
    EXPECT_GE(snap.samples(), 1u);
  }
  stop = true;
  for (auto& w : writers) w.join();
  std::remove(path.c_str());
}

// ---------- Trace session ----------

TEST(TraceStressTest, RecordersRaceExportAndClear) {
  TraceSession session;
  session.start();
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 3; ++t) {
    recorders.emplace_back([&session] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t t0 = session.now_ns();
        session.record("stress_span", "stress", t0, session.now_ns());
      }
    });
  }
  std::thread exporter([&session, &stop] {
    while (!stop.load()) {
      std::ostringstream os;
      session.write_json(os);
      (void)session.event_count();
    }
  });
  std::thread clearer([&session, &stop] {
    while (!stop.load()) {
      session.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& r : recorders) r.join();
  stop = true;
  exporter.join();
  clearer.join();
  session.stop();
}

// ---------- PhaseTimers ----------

TEST(PhaseTimersStressTest, ConcurrentAddAndMerge) {
  PhaseTimers total;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&total] {
      PhaseTimers local;
      for (int i = 0; i < kIters; ++i) {
        local.add("sample", 0.001);
        total.add("direct", 0.001);  // contended path
      }
      total.merge(local);  // merge path
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_NEAR(total.get("sample"), 4 * kIters * 0.001, 1e-6 * kIters);
  EXPECT_NEAR(total.get("direct"), 4 * kIters * 0.001, 1e-6 * kIters);
}

// ---------- Log sink ----------

TEST(LogStressTest, ConcurrentLinesAndSinkSwaps) {
  const std::string path =
      ::testing::TempDir() + "/trkx_log_stress.txt";
  set_log_file(path);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters / 10; ++i)
        TRKX_INFO << "stress t" << t << " i" << i;
    });
  }
  // Swap the sink while writers are live (file -> stderr default -> file).
  set_log_sink(nullptr);
  set_log_file(path);
  for (auto& th : threads) th.join();
  set_log_sink(nullptr);
  std::remove(path.c_str());
}

// ---------- 2-rank DDP gradient sync ----------

TEST(DistStressTest, TwoRankGradientSyncBothStrategies) {
  for (SyncStrategy strategy :
       {SyncStrategy::kPerTensor, SyncStrategy::kCoalesced}) {
    DistRuntime runtime(2);
    runtime.run([strategy](Communicator& comm) {
      ParameterStore store;
      Parameter& w1 = store.create("w1", 8, 8);
      Parameter& w2 = store.create("w2", 3, 5);
      for (int iter = 0; iter < 50; ++iter) {
        const float base =
            static_cast<float>(comm.rank() + 1) * (iter + 1);
        for (std::size_t i = 0; i < w1.grad.size(); ++i)
          w1.grad.data()[i] = base;
        for (std::size_t i = 0; i < w2.grad.size(); ++i)
          w2.grad.data()[i] = -base;
        synchronize_gradients(comm, store, strategy);
        // Mean over ranks 1 and 2 of base = 1.5 * (iter+1).
        const float expect = 1.5f * (iter + 1);
        ASSERT_FLOAT_EQ(w1.grad.data()[0], expect);
        ASSERT_FLOAT_EQ(w2.grad.data()[0], -expect);
      }
    });
  }
}

TEST(DistStressTest, ConcurrentCollectivesInterleaveCleanly) {
  DistRuntime runtime(2);
  runtime.run([](Communicator& comm) {
    for (int iter = 0; iter < 100; ++iter) {
      std::vector<float> buf(64, static_cast<float>(comm.rank() + 1));
      comm.all_reduce_sum(buf);
      ASSERT_FLOAT_EQ(buf[0], 3.0f);  // 1 + 2
      const double total = comm.all_reduce_scalar(1.0);
      ASSERT_DOUBLE_EQ(total, 2.0);
      std::vector<float> local(
          static_cast<std::size_t>(comm.rank()) + 1,
          static_cast<float>(comm.rank()));
      std::vector<float> gathered = comm.all_gather(local);
      ASSERT_EQ(gathered.size(), 3u);  // 1 + 2 elements
    }
  });
}

// ---------- MatrixShadowSampler ----------

// Prefetch workers share one sampler per event and call the const
// sample_bulk() concurrently; this drives that schedule directly so the
// tsan-stress leg sees any shared state a sampling call writes.
TEST(ShadowSamplerStressTest, SharedSamplerConcurrentBulkSampling) {
  Rng graph_rng(99);
  const Graph g = erdos_renyi(64, 0.12, graph_rng);
  const ShadowConfig cfg{.depth = 2, .fanout = 3};
  const MatrixShadowSampler sampler(g, cfg);
  constexpr int kThreads = 4;
  const int rounds = kIters / 20;  // sampling dwarfs the other loop bodies
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sampler, &total, rounds, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < rounds; ++i)
        total += sampler.sample_bulk({{0, 1, 2}, {3, 4}}, rng).size();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(total.load(), static_cast<std::size_t>(kThreads) * rounds * 2);
}

}  // namespace
}  // namespace trkx

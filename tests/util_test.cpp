#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "util/cli.hpp"
#include "util/codec.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel_guard.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace trkx {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  EXPECT_NE(c1.state(), c2.state());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
  Rng parent2(7);
  Rng d1 = parent2.split();
  Rng parent3(7);
  Rng e1 = parent3.split();
  EXPECT_EQ(d1.state(), e1.state());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, UniformIndexChiSquared) {
  Rng rng(6);
  const std::uint64_t k = 10;
  const int n = 100000;
  std::vector<int> counts(k, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(k)];
  const double expected = static_cast<double>(n) / k;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 9 dof: p=0.001 critical value is 27.9.
  EXPECT_LT(chi2, 27.9);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonMeanSmallLambda) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonMeanLargeLambda) {
  Rng rng(10);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.poisson(200.0);
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(11);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = rng.sample_without_replacement(50, 20);
    std::set<std::uint32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 20u);
    for (auto v : s) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SampleWithoutReplacementAllWhenKGeN) {
  Rng rng(13);
  auto s = rng.sample_without_replacement(5, 9);
  std::sort(s.begin(), s.end());
  ASSERT_EQ(s.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleWithoutReplacementUniform) {
  Rng rng(14);
  const int trials = 30000;
  std::vector<int> counts(10, 0);
  for (int t = 0; t < trials; ++t)
    for (auto v : rng.sample_without_replacement(10, 3)) ++counts[v];
  const double expected = trials * 3.0 / 10.0;
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------- stats ----------

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleElement) {
  RunningStat s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.0);
}

TEST(RunningStat, MinMaxFromFirstAddNotZero) {
  // Regression: min/max must come from the first observation, never from a
  // spurious 0.0 default, for streams entirely on one side of zero.
  RunningStat pos;
  for (double x : {5.0, 3.0, 8.0}) pos.add(x);
  EXPECT_DOUBLE_EQ(pos.min(), 3.0);
  EXPECT_DOUBLE_EQ(pos.max(), 8.0);
  RunningStat neg;
  for (double x : {-5.0, -3.0, -8.0}) neg.add(x);
  EXPECT_DOUBLE_EQ(neg.min(), -8.0);
  EXPECT_DOUBLE_EQ(neg.max(), -3.0);
}

TEST(RunningStat, EmptyReportsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStat whole;
  for (double x : xs) whole.add(x);
  RunningStat a, b;
  for (std::size_t i = 0; i < xs.size(); ++i) (i < 3 ? a : b).add(xs[i]);
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeEmptySides) {
  RunningStat a, b, empty;
  a.add(2.0);
  a.merge(empty);  // merging an empty stat changes nothing
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  b.merge(a);  // merging into an empty stat copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_DOUBLE_EQ(b.min(), 2.0);
  EXPECT_DOUBLE_EQ(b.max(), 2.0);
}

TEST(RunningStat, PercentileExactWithinReservoir) {
  RunningStat s;
  for (int i = 1; i <= 100; ++i) s.add(i);  // <= kReservoirCap: exact
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.5);
}

TEST(RunningStat, PercentileEstimatedBeyondReservoir) {
  RunningStat s;
  const int n = 10 * static_cast<int>(RunningStat::kReservoirCap);
  for (int i = 1; i <= n; ++i) s.add(i);
  const double p50 = s.percentile(50);
  const double p99 = s.percentile(99);
  // Reservoir estimate on a uniform stream: allow sampling error, but the
  // ordering and the [min, max] clamp must hold exactly.
  EXPECT_NEAR(p50, n / 2.0, n * 0.1);
  EXPECT_GT(p99, p50);
  EXPECT_GE(s.percentile(0), s.min());
  EXPECT_LE(s.percentile(100), s.max());
}

TEST(RunningStat, PercentileEmptyIsZero) {
  RunningStat s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(RunningStat, PercentileMergeConcatenatesWhileFitting) {
  RunningStat a, b;
  for (int i = 1; i <= 200; ++i) a.add(i);
  for (int i = 201; i <= 400; ++i) b.add(i);
  a.merge(b);  // 400 <= kReservoirCap: still exact after the merge
  EXPECT_DOUBLE_EQ(a.percentile(50), 200.5);
  EXPECT_DOUBLE_EQ(a.percentile(100), 400.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
}

TEST(Percentile, ThrowsOnEmpty) {
  EXPECT_THROW(percentile({}, 50), Error);
}

TEST(BinaryMetricsTest, PrecisionRecallF1) {
  BinaryMetrics m;
  // 3 TP, 1 FP, 2 FN, 4 TN
  for (int i = 0; i < 3; ++i) m.add(true, true);
  m.add(true, false);
  for (int i = 0; i < 2; ++i) m.add(false, true);
  for (int i = 0; i < 4; ++i) m.add(false, false);
  EXPECT_DOUBLE_EQ(m.precision(), 0.75);
  EXPECT_DOUBLE_EQ(m.recall(), 0.6);
  EXPECT_NEAR(m.f1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.7);
  EXPECT_EQ(m.total(), 10u);
}

TEST(BinaryMetricsTest, UndefinedIsZero) {
  BinaryMetrics m;
  EXPECT_EQ(m.precision(), 0.0);
  EXPECT_EQ(m.recall(), 0.0);
  EXPECT_EQ(m.f1(), 0.0);
}

TEST(BinaryMetricsTest, Merge) {
  BinaryMetrics a, b;
  a.add(true, true);
  b.add(false, true);
  a.merge(b);
  EXPECT_EQ(a.true_positives, 1u);
  EXPECT_EQ(a.false_negatives, 1u);
  EXPECT_EQ(a.total(), 2u);
}

// ---------- cli ----------

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare flag consumes the next token unless it starts with "--",
  // so positionals must precede bare flags.
  const char* argv[] = {"prog", "pos1", "--alpha", "3", "--beta=hi",
                        "--flag"};
  ArgParser args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("beta", ""), "hi");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_FALSE(args.get_bool("missing", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("y", 1.5), 1.5);
  EXPECT_FALSE(args.has("x"));
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--lr", "0.25"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.25);
}

// ---------- thread pool ----------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------- timers ----------

TEST(PhaseTimersTest, AccumulatesAndMerges) {
  PhaseTimers t;
  t.add("a", 1.0);
  t.add("a", 2.0);
  t.add("b", 0.5);
  EXPECT_DOUBLE_EQ(t.get("a"), 3.0);
  EXPECT_DOUBLE_EQ(t.get("b"), 0.5);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  PhaseTimers u;
  u.add("a", 1.0);
  t.merge(u);
  EXPECT_DOUBLE_EQ(t.get("a"), 4.0);
}

TEST(PhaseTimersTest, ConcurrentAddsFromManyThreads) {
  // DDP rank threads share one PhaseTimers per epoch record; hammer it.
  PhaseTimers t;
  std::vector<std::thread> threads;
  for (int r = 0; r < 8; ++r)
    threads.emplace_back([&t, r] {
      const std::string mine = "phase" + std::to_string(r % 2);
      for (int i = 0; i < 5000; ++i) {
        t.add(mine, 0.001);
        t.add("shared", 0.001);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_NEAR(t.get("shared"), 8 * 5000 * 0.001, 1e-6);
  EXPECT_NEAR(t.get("phase0") + t.get("phase1"), 8 * 5000 * 0.001, 1e-6);
  // Snapshot under concurrent-free conditions is consistent.
  const auto buckets = t.buckets();
  EXPECT_EQ(buckets.size(), 3u);
}

TEST(PhaseTimersTest, CopyIsSnapshot) {
  PhaseTimers t;
  t.add("a", 1.0);
  PhaseTimers copy = t;
  t.add("a", 1.0);
  EXPECT_DOUBLE_EQ(copy.get("a"), 1.0);
  EXPECT_DOUBLE_EQ(t.get("a"), 2.0);
}

// ---------- log ----------

TEST(LogTest, SinkRedirectAndThreadTag) {
  const char* path = "/tmp/trkx_util_test_log.txt";
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kDebug);
  set_log_file(path);
  TRKX_INFO << "hello from main";
  std::thread worker([] { TRKX_WARN << "hello from worker"; });
  worker.join();
  set_log_sink(nullptr);  // back to stderr (closes the owned file)
  set_log_level(prev);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("hello from main"), std::string::npos);
  EXPECT_NE(text.find("hello from worker"), std::string::npos);
  EXPECT_NE(text.find("[INFO "), std::string::npos);
  EXPECT_NE(text.find("[WARN "), std::string::npos);
  // Each line carries a [tNN] thread tag, and the two lines came from
  // different threads.
  std::set<std::string> tags;
  for (std::size_t pos = text.find("[t"); pos != std::string::npos;
       pos = text.find("[t", pos + 1))
    tags.insert(text.substr(pos, text.find(']', pos) + 1 - pos));
  EXPECT_EQ(tags.size(), 2u);
  std::remove(path);
}

// ---------- error ----------

TEST(ErrorTest, CheckThrowsWithContext) {
  try {
    TRKX_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesSilently) {
  EXPECT_NO_THROW(TRKX_CHECK(2 + 2 == 4));
}

// ---------- env registry ----------

TEST(EnvRegistry, KnownKnobsRegisteredAndSorted) {
  const auto& ks = env::knobs();
  ASSERT_FALSE(ks.empty());
  EXPECT_TRUE(env::is_registered("TRKX_SIMD"));
  EXPECT_TRUE(env::is_registered("TRKX_FAULTS"));
  EXPECT_FALSE(env::is_registered("TRKX_NOT_A_KNOB"));
  // Knobs deleted together with the mechanism they tuned, or because they
  // only shadowed a flag or a config default, stay deleted.
  for (const char* removed :
       {"MEM_PLAN", "POOL_MAX_MB", "TENSOR_POOL", "BENCH_JSON",
        "COMM_TIMEOUT_MS", "TIMESERIES_MS", "SERVE_DEADLINE_MS",
        "SERVE_QUEUE_DEPTH", "SERVE_RETRY_BUDGET", "SERVE_SHED_HIGH_PCT",
        "SERVE_SHED_LOW_PCT", "SERVE_STAGE_TIMEOUT_MS", "SERVE_WORKERS"})
    EXPECT_FALSE(env::is_registered(std::string("TRKX_") + removed))
        << removed;
  for (std::size_t i = 1; i < ks.size(); ++i)
    EXPECT_LT(std::string(ks[i - 1].name), std::string(ks[i].name))
        << "registry must stay sorted by name";
  for (const auto& k : ks) {
    EXPECT_TRUE(std::string(k.name).rfind("TRKX_", 0) == 0) << k.name;
    EXPECT_NE(std::string(k.doc), "") << k.name << " needs a doc string";
  }
}

TEST(EnvRegistry, UnregisteredKnobThrows) {
  EXPECT_THROW(env::get_string("TRKX_NOT_A_KNOB"), Error);
  EXPECT_THROW(env::raw("TRKX_NOT_A_KNOB"), Error);
}

TEST(EnvRegistry, TypedAccessorsAndDefaults) {
  ::unsetenv("TRKX_CHECK_NUMERICS");
  EXPECT_FALSE(env::get_bool("TRKX_CHECK_NUMERICS"));  // default "0"
  ::setenv("TRKX_CHECK_NUMERICS", "0", 1);
  EXPECT_FALSE(env::get_bool("TRKX_CHECK_NUMERICS"));
  ::setenv("TRKX_CHECK_NUMERICS", "off", 1);
  EXPECT_FALSE(env::get_bool("TRKX_CHECK_NUMERICS"));
  ::setenv("TRKX_CHECK_NUMERICS", "yes", 1);
  EXPECT_TRUE(env::get_bool("TRKX_CHECK_NUMERICS"));
  ::unsetenv("TRKX_CHECK_NUMERICS");

  ::unsetenv("TRKX_SIMD");
  EXPECT_EQ(env::get_string("TRKX_SIMD"), "auto");
  EXPECT_FALSE(env::is_set("TRKX_SIMD"));
}

TEST(EnvRegistry, DumpIsValidSortedJson) {
  std::ostringstream os;
  env::dump_registry_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  // Every registered knob appears exactly once.
  for (const auto& k : env::knobs()) {
    const std::string needle = std::string("\"name\": \"") + k.name + "\"";
    const std::size_t first = json.find(needle);
    ASSERT_NE(first, std::string::npos) << k.name;
    EXPECT_EQ(json.find(needle, first + 1), std::string::npos) << k.name;
  }
}

TEST(ExceptionBarrier, CapturesFirstAndRethrowsOnce) {
  ExceptionBarrier barrier;
  EXPECT_FALSE(barrier.cancelled());
  barrier.run([] { throw Error("first"); });
  EXPECT_TRUE(barrier.cancelled());
  barrier.run([] { throw Error("second"); });  // dropped: first wins
  try {
    barrier.rethrow();
    FAIL() << "rethrow() did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
  }
  // Cleared after rethrow: reusable, second rethrow is a no-op.
  EXPECT_FALSE(barrier.cancelled());
  barrier.rethrow();
}

TEST(ExceptionBarrier, NonThrowingBodyPassesThrough) {
  ExceptionBarrier barrier;
  int runs = 0;
  barrier.run([&] { ++runs; });
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(barrier.cancelled());
  barrier.rethrow();  // nothing captured: no-op
}


// ---------- codec ----------

TEST(Codec, Crc32MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xcbf43926u);
  // Chaining blocks through `seed` equals one pass over the whole range.
  EXPECT_EQ(crc32(check.data() + 4, 5, crc32(check.data(), 4)), 0xcbf43926u);
}

TEST(Codec, EnvelopeRoundTripsLittleEndian) {
  ByteWriter payload;
  payload.put<std::uint32_t>(0x01020304u);
  payload.put_vector(std::string("ab"));
  payload.put_vector(std::vector<float>{1.5f, -2.0f});
  const ByteWriter file = ByteWriter::envelope(0x4c504b54u, 7, payload.bytes);
  const std::string& bytes = file.bytes;
  ASSERT_EQ(bytes.size(), 8 + kFrameHeaderBytes + payload.bytes.size());
  EXPECT_EQ(bytes.substr(0, 4), "TKPL");
  EXPECT_EQ(static_cast<unsigned char>(bytes[20]), 0x04u);

  ByteReader r(bytes, CodecError::kIo, "mem");
  ByteReader p = r.get_envelope(0x4c504b54u, 7, "test file");
  r.expect_end();
  EXPECT_EQ(p.get<std::uint32_t>(), 0x01020304u);
  EXPECT_EQ(p.get_vector<char>(), (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(p.get_vector<float>(), (std::vector<float>{1.5f, -2.0f}));
  p.expect_end();
}

TEST(Codec, LyingFieldsFailTypedWithSourceAndOffset) {
  ByteWriter w;
  w.put<std::uint64_t>(1ull << 40);  // a count no 8 bytes can hold
  const std::string bytes = w.bytes;
  ByteReader io(bytes, CodecError::kIo, "events.bin");
  try {
    (void)io.get_count(1);
    FAIL() << "lying count accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("events.bin at byte 8"),
              std::string::npos)
        << e.what();
  }
  ByteReader ckpt(bytes, CodecError::kCheckpoint, "model");
  EXPECT_THROW((void)ckpt.get_frame(), CheckpointError);
  ByteReader bad_magic(bytes, CodecError::kCheckpoint, "model");
  EXPECT_THROW((void)bad_magic.get_envelope(0x4c504b54u, 1, "model"),
               CheckpointError);
}

TEST(Codec, StreamReadsFramesBoundedByTheBytesLeft) {
  ByteWriter w;
  w.put_frame("payload");
  w.put_frame("second");
  std::istringstream is(w.bytes);
  ByteReader in(is, CodecError::kIo, "stream");
  in.skip_frame();
  EXPECT_EQ(in.offset(), kFrameHeaderBytes + 7);
  EXPECT_EQ(in.get_frame().remaining(), 6u);
  in.expect_end();

  std::istringstream torn(w.bytes.substr(0, w.bytes.size() - 1));
  ByteReader torn_in(torn, CodecError::kIo, "stream");
  (void)torn_in.get_frame();
  EXPECT_THROW((void)torn_in.get_frame(), IoError);
}

}  // namespace
}  // namespace trkx

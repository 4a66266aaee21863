// Tests for the sampler↔trainer overlap pipeline and its supporting
// pieces: PrefetchQueue, the balanced shard_batch partition,
// parallel evaluate_edges, and — the load-bearing property — bit-identical
// pipelined vs serial training for both sampler kinds.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "pipeline/gnn_train.hpp"
#include "util/prefetch.hpp"
#include "util/thread_pool.hpp"

namespace trkx {
namespace {

// ---------- PrefetchQueue ----------

TEST(PrefetchQueueTest, ResultsMatchInlineProduction) {
  ThreadPool pool(2);
  const std::size_t n = 37;
  auto produce = [](std::size_t i) { return i * i + 1; };
  PrefetchQueue<std::size_t> queue(&pool, 3, n, produce);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(queue.get(i), i * i + 1);
  EXPECT_EQ(queue.stats().gets, n);
  EXPECT_EQ(queue.stats().inline_runs, 0u);
}

TEST(PrefetchQueueTest, DepthZeroRunsEverythingInline) {
  ThreadPool pool(2);
  std::atomic<int> produced{0};
  auto produce = [&](std::size_t i) {
    ++produced;
    return static_cast<int>(i) * 3;
  };
  PrefetchQueue<int> queue(&pool, 0, 5, produce);
  EXPECT_EQ(produced.load(), 0);  // nothing runs ahead of consumption
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(queue.get(i), static_cast<int>(i) * 3);
  EXPECT_EQ(produced.load(), 5);
  EXPECT_EQ(queue.stats().inline_runs, 5u);
}

TEST(PrefetchQueueTest, NullPoolRunsInlineRegardlessOfDepth) {
  auto produce = [](std::size_t i) { return static_cast<int>(i) + 7; };
  PrefetchQueue<int> queue(nullptr, 4, 3, produce);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(queue.get(i), static_cast<int>(i) + 7);
  EXPECT_EQ(queue.stats().inline_runs, 3u);
}

TEST(PrefetchQueueTest, NeverRunsMoreThanDepthAhead) {
  ThreadPool pool(4);
  std::atomic<std::size_t> produced{0};
  std::atomic<std::size_t> consumed{0};
  std::atomic<std::size_t> max_ahead{0};
  auto produce = [&](std::size_t i) {
    const std::size_t ahead = produced.fetch_add(1) + 1 - consumed.load();
    std::size_t seen = max_ahead.load();
    while (ahead > seen && !max_ahead.compare_exchange_weak(seen, ahead)) {
    }
    return i;
  };
  const std::size_t depth = 2;
  PrefetchQueue<std::size_t> queue(&pool, depth, 30, produce);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(queue.get(i), i);
    ++consumed;
  }
  // In-flight production can never exceed the configured look-ahead.
  EXPECT_LE(max_ahead.load(), depth + 1);
}

TEST(PrefetchQueueTest, AbandonedMidSequenceDrainsCleanly) {
  ThreadPool pool(2);
  std::atomic<int> produced{0};
  {
    auto produce = [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++produced;
      return i;
    };
    PrefetchQueue<std::size_t> queue(&pool, 4, 100, produce);
    (void)queue.get(0);
    (void)queue.get(1);
    // Destructor must wait for in-flight tasks, not crash or leak.
  }
  EXPECT_GE(produced.load(), 2);
  EXPECT_LE(produced.load(), 7);  // 2 consumed + at most depth+1 in flight
}

// ---------- shard_batch ----------

TEST(ShardBatchTest, ShardsExactlyPartitionForAllSizes) {
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<std::uint32_t> batch(n);
    std::iota(batch.begin(), batch.end(), 100u);
    for (int world = 1; world <= 8; ++world) {
      std::vector<std::uint32_t> merged;
      std::size_t max_size = 0;
      std::size_t min_size = n + 1;
      for (int rank = 0; rank < world; ++rank) {
        const auto shard = shard_batch(batch, rank, world);
        merged.insert(merged.end(), shard.begin(), shard.end());
        max_size = std::max(max_size, shard.size());
        min_size = std::min(min_size, shard.size());
      }
      // Concatenated shards reproduce the batch exactly, in order.
      EXPECT_EQ(merged, batch) << "n=" << n << " world=" << world;
      // Balanced: sizes differ by at most one.
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " world=" << world;
    }
  }
}

TEST(ShardBatchTest, SmallBatchesYieldEmptyTrailingShards) {
  const std::vector<std::uint32_t> batch{7, 8, 9};
  for (int rank = 0; rank < 5; ++rank) {
    const auto shard = shard_batch(batch, rank, 5);
    if (rank < 3)
      ASSERT_EQ(shard.size(), 1u);
    else
      EXPECT_TRUE(shard.empty());
  }
}

TEST(ShardBatchTest, InvalidRankThrows) {
  const std::vector<std::uint32_t> batch{1, 2, 3};
  EXPECT_THROW(shard_batch(batch, -1, 2), Error);
  EXPECT_THROW(shard_batch(batch, 2, 2), Error);
  EXPECT_THROW(shard_batch(batch, 0, 0), Error);
}

// ---------- training fixtures ----------

DetectorConfig tiny_detector() {
  DetectorConfig cfg;
  cfg.mean_particles = 25.0;
  cfg.noise_fraction = 0.05;
  return cfg;
}

std::vector<Event> tiny_events(std::size_t count, std::uint64_t seed) {
  std::vector<Event> events;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng er = rng.split();
    events.push_back(generate_event(tiny_detector(), er));
  }
  return events;
}

GnnTrainConfig fast_train_config() {
  GnnTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 64;
  cfg.shadow = {.depth = 2, .fanout = 3};
  cfg.bulk_k = 2;
  cfg.evaluate_every_epoch = true;
  return cfg;
}

IgnnConfig fast_gnn_config(const Event& sample) {
  IgnnConfig cfg;
  cfg.node_input_dim = sample.node_features.cols();
  cfg.edge_input_dim = sample.edge_features.cols();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.mlp_hidden = 1;
  return cfg;
}

// ---------- evaluate_edges ----------

TEST(EvaluateEdgesTest, ParallelMatchesSerialExactly) {
  auto events = tiny_events(4, 41);
  GnnModel model(fast_gnn_config(events[0]), 7);
  const BinaryMetrics serial = evaluate_edges(model, events, 0.5f, 1);
  const BinaryMetrics parallel = evaluate_edges(model, events, 0.5f, 4);
  EXPECT_EQ(serial.true_positives, parallel.true_positives);
  EXPECT_EQ(serial.false_positives, parallel.false_positives);
  EXPECT_EQ(serial.false_negatives, parallel.false_negatives);
  EXPECT_EQ(serial.true_negatives, parallel.true_negatives);
  EXPECT_GT(serial.total(), 0u);
}

// ---------- pipelined vs serial determinism ----------

class PipelinedDeterminism : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(PipelinedDeterminism, PrefetchDepthDoesNotChangeTraining) {
  auto events = tiny_events(2, 51);
  auto val = tiny_events(1, 52);

  auto run = [&](std::size_t depth, std::size_t threads) {
    GnnTrainConfig cfg = fast_train_config();
    cfg.epochs = 3;
    cfg.prefetch_depth = depth;
    cfg.prefetch_threads = threads;
    GnnModel model(fast_gnn_config(events[0]), 123);
    TrainResult r = train_shadow(model, events, val, cfg, GetParam());
    return std::make_pair(std::move(r), model.store.flatten_values());
  };

  const auto [serial, serial_weights] = run(0, 1);
  const auto [pipelined, pipelined_weights] = run(2, 1);
  const auto [deep, deep_weights] = run(4, 2);

  ASSERT_EQ(serial.epochs.size(), pipelined.epochs.size());
  for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
    // Bit-identical loss trajectory: the per-stream RNG scheme must make
    // the pipeline invisible to the math.
    EXPECT_EQ(serial.epochs[e].train_loss, pipelined.epochs[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(serial.epochs[e].train_loss, deep.epochs[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(serial.epochs[e].val.true_positives, pipelined.epochs[e].val.true_positives);
    EXPECT_EQ(serial.epochs[e].val.false_positives, pipelined.epochs[e].val.false_positives);
    EXPECT_EQ(serial.epochs[e].val.false_negatives, pipelined.epochs[e].val.false_negatives);
    EXPECT_EQ(serial.epochs[e].val.true_negatives, pipelined.epochs[e].val.true_negatives);
  }
  ASSERT_EQ(serial_weights.size(), pipelined_weights.size());
  for (std::size_t i = 0; i < serial_weights.size(); ++i) {
    ASSERT_EQ(serial_weights[i], pipelined_weights[i]) << "weight " << i;
    ASSERT_EQ(serial_weights[i], deep_weights[i]) << "weight " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, PipelinedDeterminism,
                         ::testing::Values(SamplerKind::kReference,
                                           SamplerKind::kMatrixBulk));

TEST(PipelinedDeterminism2, DdpPipelinedMatchesDdpSerial) {
  auto events = tiny_events(2, 61);
  auto val = tiny_events(1, 62);

  auto run = [&](std::size_t depth) {
    GnnTrainConfig cfg = fast_train_config();
    cfg.prefetch_depth = depth;
    GnnModel model(fast_gnn_config(events[0]), 321);
    DistRuntime rt(2);
    TrainResult r =
        train_shadow_ddp(model, events, val, cfg, rt, SamplerKind::kMatrixBulk);
    return std::make_pair(std::move(r), model.store.flatten_values());
  };

  const auto [serial, serial_weights] = run(0);
  const auto [pipelined, pipelined_weights] = run(2);
  ASSERT_EQ(serial.epochs.size(), pipelined.epochs.size());
  for (std::size_t e = 0; e < serial.epochs.size(); ++e)
    EXPECT_EQ(serial.epochs[e].train_loss, pipelined.epochs[e].train_loss);
  EXPECT_EQ(serial_weights, pipelined_weights);
}

TEST(PrefetchTrainingTest, StallTimerIsRecordedWhenPipelined) {
  auto events = tiny_events(1, 71);
  auto val = tiny_events(1, 72);
  GnnTrainConfig cfg = fast_train_config();
  cfg.epochs = 1;
  cfg.prefetch_depth = 2;
  GnnModel model(fast_gnn_config(events[0]), 5);
  TrainResult r =
      train_shadow(model, events, val, cfg, SamplerKind::kReference);
  // The bucket exists (possibly ~0 if the producer always kept up).
  EXPECT_GE(r.epochs[0].timers.get("prefetch_stall"), 0.0);
  EXPECT_GT(r.epochs[0].timers.get("sample"), 0.0);
}

}  // namespace
}  // namespace trkx

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "detector/presets.hpp"
#include "io/event_io.hpp"
#include "obs/metrics.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace trkx {
namespace {

namespace fs = std::filesystem;

/// Fault-injection chaos suite (ctest label: chaos). Every test arms the
/// global fault registry explicitly and disarms it on exit, so the rest
/// of the test binary — and every other binary — runs fault-free.
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = ex3_spec(0.05);
    dataset_ = std::make_unique<Dataset>(
        generate_dataset("ex3-chaos", spec.detector, 2, 1, 1, 777));
  }
  static void TearDownTestSuite() { dataset_.reset(); }
  static std::unique_ptr<Dataset> dataset_;

  void SetUp() override {
    fault::Registry::global().clear();
    dir_ = fs::temp_directory_path() /
           ("trkx_chaos_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::Registry::global().clear();
    fs::remove_all(dir_);
  }

  static IgnnConfig gnn_config() {
    IgnnConfig cfg;
    cfg.node_input_dim = dataset_->train[0].node_features.cols();
    cfg.edge_input_dim = dataset_->train[0].edge_features.cols();
    cfg.hidden_dim = 16;
    cfg.num_layers = 2;
    cfg.mlp_hidden = 1;
    return cfg;
  }

  static GnnTrainConfig train_config(std::size_t epochs) {
    GnnTrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = 128;
    cfg.shadow = {.depth = 2, .fanout = 4};
    cfg.bulk_k = 2;
    return cfg;
  }

  fs::path dir_;
};

std::unique_ptr<Dataset> ChaosTest::dataset_;

// ---------------------------------------------------------------------------
// Graceful degradation: I/O faults are retried, then quarantined, and the
// rest of the load continues.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TransientIoErrorIsRetriedAndRecovers) {
  const std::string path = (dir_ / "events.bin").string();
  save_events(path, dataset_->train);
  // First read attempt fails, the retry succeeds.
  fault::Registry::global().arm_from_string("io.read_event:error:nth=1");
  IoRetryPolicy policy;
  policy.initial_backoff_ms = 0.1;
  const TolerantLoadResult result = load_events_tolerant(path, policy);
  EXPECT_EQ(result.events.size(), dataset_->train.size());
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_GE(result.retries, 1u);
}

TEST_F(ChaosTest, PersistentIoErrorQuarantinesEveryRecord) {
  const std::string path = (dir_ / "events.bin").string();
  save_events(path, dataset_->train);
  const auto before = metrics().counter("events.quarantined").value();
  fault::Registry::global().arm_from_string("io.read_event:error:every=1");
  IoRetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 0.1;
  const TolerantLoadResult result = load_events_tolerant(path, policy);
  EXPECT_TRUE(result.events.empty());
  EXPECT_EQ(result.quarantined, dataset_->train.size());
  EXPECT_EQ(result.quarantine_log.size(), result.quarantined);
  EXPECT_GE(metrics().counter("events.quarantined").value(),
            before + result.quarantined);
}

TEST_F(ChaosTest, IoDelayFaultOnlySlowsTheLoad) {
  const std::string path = (dir_ / "events.bin").string();
  save_events(path, dataset_->train);
  fault::Registry::global().arm_from_string("io.read_event:delay:every=1:ms=1");
  const TolerantLoadResult result = load_events_tolerant(path);
  EXPECT_EQ(result.events.size(), dataset_->train.size());
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_EQ(result.retries, 0u);
}

TEST_F(ChaosTest, CorruptRecordIsQuarantinedOthersSurvive) {
  const std::string path = (dir_ / "events.bin").string();
  save_events(path, dataset_->train);
  // Flip one byte near the end of the file: it lands inside the last
  // record's blob, so its CRC fails while earlier records stay intact.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size - 16);
    char byte = 0;
    f.seekg(size - 16);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(size - 16);
    f.write(&byte, 1);
  }
  // The strict loader refuses the whole file...
  EXPECT_THROW(load_events(path), IoError);
  // ...the tolerant loader quarantines the bad record and keeps the rest.
  IoRetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 0.1;
  const TolerantLoadResult result = load_events_tolerant(path, policy);
  EXPECT_EQ(result.events.size(), dataset_->train.size() - 1);
  EXPECT_EQ(result.quarantined, 1u);
  ASSERT_EQ(result.quarantine_log.size(), 1u);
  // The quarantine message carries the file path for the operator.
  EXPECT_NE(result.quarantine_log[0].find("events.bin"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: a killed run resumes bit-identically.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, CrashResumeReproducesTrajectoryBitIdentically) {
  GnnTrainConfig cfg = train_config(4);
  cfg.seed = 5;
  // Exercise the full set of checkpointed trainer state: early stopping
  // and the best-weights snapshot.
  cfg.keep_best_weights = true;
  cfg.early_stop_patience = 10;  // present but not expected to trigger

  // Reference: the uninterrupted run (checkpointing disabled — resuming
  // against it also proves checkpoint writes don't perturb training).
  GnnModel m_full(gnn_config(), 21);
  const TrainResult r_full = train_shadow(m_full, dataset_->train,
                                          dataset_->val, cfg,
                                          SamplerKind::kMatrixBulk);
  ASSERT_EQ(r_full.epochs.size(), 4u);

  // Interrupted run: the rank-kill fault fires at the top of epoch 2, so
  // checkpoints for epochs 0 and 1 are on disk.
  cfg.checkpoint_dir = (dir_ / "ckpt").string();
  fault::Registry::global().arm_from_string("train.epoch:rank-kill:nth=3");
  GnnModel m_int(gnn_config(), 21);
  EXPECT_THROW(train_shadow(m_int, dataset_->train, dataset_->val, cfg,
                            SamplerKind::kMatrixBulk),
               RankKilledError);
  fault::Registry::global().clear();
  EXPECT_EQ(fs::path(latest_checkpoint(cfg.checkpoint_dir))
                .filename()
                .string(),
            "ckpt-000002.ckpt");

  // Resume into a fresh model: epochs 2..3 run live, 0..1 come from the
  // checkpoint. Everything observable must match the uninterrupted run
  // exactly (same bits, not just approximately).
  cfg.resume = true;
  GnnModel m_res(gnn_config(), 21);
  const TrainResult r_res = train_shadow(m_res, dataset_->train,
                                         dataset_->val, cfg,
                                         SamplerKind::kMatrixBulk);
  ASSERT_EQ(r_res.epochs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r_res.epochs[i].train_loss, r_full.epochs[i].train_loss)
        << "epoch " << i;
    EXPECT_EQ(r_res.epochs[i].val.true_positives,
              r_full.epochs[i].val.true_positives) << "epoch " << i;
    EXPECT_EQ(r_res.epochs[i].val.false_positives,
              r_full.epochs[i].val.false_positives) << "epoch " << i;
    EXPECT_EQ(r_res.epochs[i].val.true_negatives,
              r_full.epochs[i].val.true_negatives) << "epoch " << i;
    EXPECT_EQ(r_res.epochs[i].val.false_negatives,
              r_full.epochs[i].val.false_negatives) << "epoch " << i;
  }
  EXPECT_EQ(r_res.selected_epoch, r_full.selected_epoch);
  EXPECT_EQ(m_res.store.flatten_values(), m_full.store.flatten_values());
}

TEST_F(ChaosTest, ResumeRejectsCheckpointFromDifferentConfig) {
  GnnTrainConfig cfg = train_config(2);
  cfg.checkpoint_dir = (dir_ / "ckpt").string();
  GnnModel model(gnn_config(), 22);
  train_shadow(model, dataset_->train, dataset_->val, cfg,
               SamplerKind::kMatrixBulk);
  ASSERT_NE(latest_checkpoint(cfg.checkpoint_dir), "");

  GnnTrainConfig other = cfg;
  other.resume = true;
  other.seed = cfg.seed + 1;  // different trajectory — must be refused
  GnnModel m2(gnn_config(), 22);
  EXPECT_THROW(train_shadow(m2, dataset_->train, dataset_->val, other,
                            SamplerKind::kMatrixBulk),
               CheckpointError);

  // Full-graph training shares the loop and the checkpoint format but not
  // the trajectory: the ShaDow checkpoint must be refused there too.
  GnnTrainConfig full = cfg;
  full.resume = true;
  GnnModel m3(gnn_config(), 22);
  EXPECT_THROW(train_full_graph(m3, dataset_->train, dataset_->val, full),
               CheckpointError);
}

TEST_F(ChaosTest, FullGraphCrashResumeReproducesTrajectory) {
  // Full-graph training runs in the shared epoch loop, so it has the
  // train.epoch fault site and bit-identical checkpoint/resume too.
  GnnTrainConfig cfg = train_config(3);
  cfg.keep_best_weights = true;
  GnnModel m_full(gnn_config(), 23);
  const TrainResult r_full =
      train_full_graph(m_full, dataset_->train, dataset_->val, cfg);
  ASSERT_EQ(r_full.epochs.size(), 3u);

  cfg.checkpoint_dir = (dir_ / "ckpt").string();
  fault::Registry::global().arm_from_string("train.epoch:rank-kill:nth=2");
  GnnModel m_int(gnn_config(), 23);
  EXPECT_THROW(train_full_graph(m_int, dataset_->train, dataset_->val, cfg),
               RankKilledError);
  fault::Registry::global().clear();

  cfg.resume = true;
  GnnModel m_res(gnn_config(), 23);
  const TrainResult r_res =
      train_full_graph(m_res, dataset_->train, dataset_->val, cfg);
  ASSERT_EQ(r_res.epochs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r_res.epochs[i].train_loss, r_full.epochs[i].train_loss)
        << "epoch " << i;
    EXPECT_EQ(r_res.epochs[i].val.true_positives,
              r_full.epochs[i].val.true_positives) << "epoch " << i;
    EXPECT_EQ(r_res.epochs[i].val.false_positives,
              r_full.epochs[i].val.false_positives) << "epoch " << i;
  }
  EXPECT_EQ(r_res.selected_epoch, r_full.selected_epoch);
  EXPECT_EQ(m_res.store.flatten_values(), m_full.store.flatten_values());
}

// ---------------------------------------------------------------------------
// Distributed faults: a killed rank must not deadlock the survivors; they
// observe CommTimeoutError, write an emergency checkpoint, and unwind.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DdpRankKillSurvivorsCheckpointThenResumeMatches) {
  GnnTrainConfig cfg = train_config(3);
  cfg.seed = 6;

  // Reference: uninterrupted 2-rank DDP run.
  GnnModel m_full(gnn_config(), 31);
  DistRuntime rt_full(2);
  const TrainResult r_full = train_shadow_ddp(m_full, dataset_->train,
                                              dataset_->val, cfg, rt_full,
                                              SamplerKind::kMatrixBulk);
  ASSERT_EQ(r_full.epochs.size(), 3u);

  // Kill rank 1 at the top of epoch 2. Rank 0 hits the aborted collective,
  // observes CommTimeoutError, writes the epoch-2 boundary checkpoint, and
  // the runtime rethrows the root cause.
  cfg.checkpoint_dir = (dir_ / "ckpt").string();
  fault::Registry::global().arm_from_string(
      "train.epoch:rank-kill:nth=3:rank=1");
  const auto emergencies_before =
      metrics().counter("checkpoint.emergency_writes").value();
  GnnModel m_int(gnn_config(), 31);
  DistRuntime rt_kill(2, {}, 5.0);  // comm timeout backstop: no deadlock
  EXPECT_THROW(train_shadow_ddp(m_int, dataset_->train, dataset_->val, cfg,
                                rt_kill, SamplerKind::kMatrixBulk),
               RankKilledError);
  fault::Registry::global().clear();
  EXPECT_GE(metrics().counter("checkpoint.emergency_writes").value(),
            emergencies_before + 1);
  EXPECT_EQ(fs::path(latest_checkpoint(cfg.checkpoint_dir))
                .filename()
                .string(),
            "ckpt-000002.ckpt");
  // The survivor recorded the typed timeout, not a hang or a crash.
  bool saw_timeout = false;
  try {
    if (rt_kill.rank_error(0)) std::rethrow_exception(rt_kill.rank_error(0));
  } catch (const CommTimeoutError&) {
    saw_timeout = true;
  }
  EXPECT_TRUE(saw_timeout);

  // Resume on a fresh runtime: the final trajectory matches the
  // uninterrupted DDP run bit for bit.
  cfg.resume = true;
  GnnModel m_res(gnn_config(), 31);
  DistRuntime rt_res(2);
  const TrainResult r_res = train_shadow_ddp(m_res, dataset_->train,
                                             dataset_->val, cfg, rt_res,
                                             SamplerKind::kMatrixBulk);
  ASSERT_EQ(r_res.epochs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(r_res.epochs[i].train_loss, r_full.epochs[i].train_loss)
        << "epoch " << i;
  EXPECT_EQ(m_res.store.flatten_values(), m_full.store.flatten_values());
}

TEST_F(ChaosTest, CollectiveTimeoutPoisonsEveryRankWithoutDeadlock) {
  DistRuntime rt(2, {}, 0.15);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(rt.run([&](Communicator& comm) {
                 if (comm.rank() == 1)
                   std::this_thread::sleep_for(
                       std::chrono::milliseconds(500));
                 comm.barrier();
               }),
               CommTimeoutError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0);  // unwound promptly, no deadlock
  // Every rank observed the typed timeout.
  for (int r = 0; r < 2; ++r) {
    bool timed_out = false;
    try {
      ASSERT_TRUE(rt.rank_error(r));
      std::rethrow_exception(rt.rank_error(r));
    } catch (const CommTimeoutError&) {
      timed_out = true;
    } catch (...) {
    }
    EXPECT_TRUE(timed_out) << "rank " << r;
  }

  // The runtime recovers for the next run(): the poisoned barrier is
  // replaced and collectives work again.
  std::atomic<int> ok{0};
  rt.run([&](Communicator& comm) {
    comm.barrier();
    ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 2);
}

TEST_F(ChaosTest, AllReduceFaultSiteKillsCollective) {
  // The dist.all_reduce site itself (armed via the same TRKX_FAULTS
  // grammar the CI chaos leg uses) aborts the peer cleanly.
  fault::Registry::global().arm_from_string(
      "dist.all_reduce:rank-kill:nth=2:rank=1");
  DistRuntime rt(2, {}, 5.0);
  std::vector<std::vector<float>> bufs(2, std::vector<float>(8, 1.0f));
  EXPECT_THROW(rt.run([&](Communicator& comm) {
                 auto& buf = bufs[static_cast<std::size_t>(comm.rank())];
                 for (int i = 0; i < 4; ++i)
                   comm.all_reduce_sum(
                       std::span<float>(buf.data(), buf.size()));
               }),
               RankKilledError);
  // Rank 0 survived with the typed timeout, not a deadlock.
  bool saw_timeout = false;
  try {
    if (rt.rank_error(0)) std::rethrow_exception(rt.rank_error(0));
  } catch (const CommTimeoutError&) {
    saw_timeout = true;
  } catch (...) {
  }
  EXPECT_TRUE(saw_timeout);
}

TEST_F(ChaosTest, RankDivergentCollectivePoisonsSurvivors) {
  // Rank divergence at a collective: an injected error makes rank 1
  // throw out of its dist.all_reduce call while rank 0 enters the
  // reduce — the exact hazard the trkx-collective-divergent analyzer
  // rule flags statically. The TimeoutBarrier must poison the survivor
  // (typed CommTimeoutError) instead of leaving it parked in the
  // barrier. Armed through TRKX_FAULTS + arm_from_env(), the operator
  // path the CI chaos leg exercises end-to-end.
  ASSERT_EQ(::setenv("TRKX_FAULTS", "dist.all_reduce:error:nth=1:rank=1", 1),
            0);
  fault::Registry::global().arm_from_env();
  ::unsetenv("TRKX_FAULTS");
  ASSERT_EQ(fault::Registry::global().armed_count(), 1u);

  DistRuntime rt(2, {}, 5.0);
  std::vector<std::vector<float>> bufs(2, std::vector<float>(8, 1.0f));
  // run() rethrows the root cause (the diverged rank), never the
  // survivors' secondary timeouts.
  EXPECT_THROW(rt.run([&](Communicator& comm) {
                 auto& buf = bufs[static_cast<std::size_t>(comm.rank())];
                 comm.all_reduce_sum(
                     std::span<float>(buf.data(), buf.size()));
               }),
               FaultInjectedError);
  EXPECT_EQ(fault::Registry::global().injected("dist.all_reduce"), 1u);

  // Rank 1 carries the injected root cause; surviving rank 0 was
  // poisoned with the typed collective timeout.
  bool rank1_injected = false;
  try {
    ASSERT_TRUE(rt.rank_error(1));
    std::rethrow_exception(rt.rank_error(1));
  } catch (const FaultInjectedError&) {
    rank1_injected = true;
  } catch (...) {
  }
  EXPECT_TRUE(rank1_injected);
  bool rank0_timed_out = false;
  try {
    ASSERT_TRUE(rt.rank_error(0));
    std::rethrow_exception(rt.rank_error(0));
  } catch (const CommTimeoutError&) {
    rank0_timed_out = true;
  } catch (...) {
  }
  EXPECT_TRUE(rank0_timed_out);

  // Disarmed, the same runtime recovers: the poisoned barrier is
  // replaced and the collective completes on both ranks.
  fault::Registry::global().clear();
  std::atomic<int> ok{0};
  rt.run([&](Communicator& comm) {
    auto& buf = bufs[static_cast<std::size_t>(comm.rank())];
    std::fill(buf.begin(), buf.end(), 1.0f);
    comm.all_reduce_sum(std::span<float>(buf.data(), buf.size()));
    if (buf[0] == 2.0f) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 2);
}

}  // namespace
}  // namespace trkx

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/parameter.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace trkx {
namespace {

namespace fs = std::filesystem;

/// A tiny two-parameter store with deterministic, non-trivial values.
ParameterStore make_store() {
  ParameterStore store;
  Parameter& w = store.create("w", 3, 4);
  Parameter& b = store.create("b", 1, 4);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.value.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  for (std::size_t i = 0; i < b.size(); ++i)
    b.value.data()[i] = 0.5f - 0.125f * static_cast<float>(i);
  return store;
}

/// Deterministic pseudo-gradients, different per step.
void fill_grads(ParameterStore& store, int step) {
  for (Parameter& p : store.params())
    for (std::size_t i = 0; i < p.size(); ++i)
      p.grad.data()[i] =
          0.01f * static_cast<float>(i + 1) * static_cast<float>(step + 1);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("trkx_ckpt_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(CheckpointTest, AdamStateRoundTripIsBitExact) {
  ParameterStore a = make_store();
  Adam opt_a(a, AdamOptions{.lr = 1e-2f});
  for (int s = 0; s < 3; ++s) {
    fill_grads(a, s);
    opt_a.step();
  }
  std::stringstream ss;
  opt_a.save_state(ss);

  ParameterStore b = make_store();
  b.copy_values_from(a);  // same weights before resuming
  Adam opt_b(b, AdamOptions{.lr = 1e-2f});
  opt_b.load_state(ss);
  EXPECT_EQ(opt_b.steps_taken(), opt_a.steps_taken());

  // Identical moments + identical gradients must produce bitwise identical
  // parameter updates from here on.
  for (int s = 3; s < 6; ++s) {
    fill_grads(a, s);
    opt_a.step();
    fill_grads(b, s);
    opt_b.step();
  }
  EXPECT_EQ(a.flatten_values(), b.flatten_values());
}

TEST_F(CheckpointTest, AdamStateRejectsBadMagicAndVersion) {
  ParameterStore a = make_store();
  Adam opt(a, AdamOptions{});
  fill_grads(a, 0);
  opt.step();
  std::stringstream ss;
  opt.save_state(ss);
  std::string bytes = ss.str();

  // Flip the magic: not an Adam state at all.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  {
    ParameterStore s2 = make_store();
    Adam o2(s2, AdamOptions{});
    std::istringstream is(bad_magic);
    EXPECT_THROW(o2.load_state(is), CheckpointError);
  }
  // Bump the version field (bytes 4..8): future-format rejection.
  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(99);
  {
    ParameterStore s2 = make_store();
    Adam o2(s2, AdamOptions{});
    std::istringstream is(bad_version);
    EXPECT_THROW(o2.load_state(is), CheckpointError);
  }
}

TrainCheckpointState sample_state() {
  TrainCheckpointState st;
  st.fingerprint = 0xabcdef;
  st.next_epoch = 7;
  st.global_step = 123;
  st.rng_state = 0x123456789abcull;
  st.rng_have_spare = true;
  st.rng_spare = -0.75;
  st.early_best = 0.625;
  st.early_bad_epochs = 2;
  st.best_f1 = 0.5;
  st.best_epoch = 4;
  st.best_weights = {1.0f, -2.0f, 3.5f};
  st.epochs.push_back({0.9, 10, 2, 30, 4, 1.5});
  st.epochs.push_back({0.7, 12, 1, 31, 3, 1.25});
  return st;
}

void expect_state_eq(const TrainCheckpointState& a,
                     const TrainCheckpointState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.global_step, b.global_step);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.rng_have_spare, b.rng_have_spare);
  EXPECT_EQ(a.rng_spare, b.rng_spare);
  EXPECT_EQ(a.early_best, b.early_best);
  EXPECT_EQ(a.early_bad_epochs, b.early_bad_epochs);
  EXPECT_EQ(a.best_f1, b.best_f1);
  EXPECT_EQ(a.best_epoch, b.best_epoch);
  EXPECT_EQ(a.best_weights, b.best_weights);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].train_loss, b.epochs[i].train_loss);
    EXPECT_EQ(a.epochs[i].tp, b.epochs[i].tp);
    EXPECT_EQ(a.epochs[i].fp, b.epochs[i].fp);
    EXPECT_EQ(a.epochs[i].tn, b.epochs[i].tn);
    EXPECT_EQ(a.epochs[i].fn, b.epochs[i].fn);
    EXPECT_EQ(a.epochs[i].wall_seconds, b.epochs[i].wall_seconds);
  }
}

TEST_F(CheckpointTest, SerializeDeserializeRoundTrip) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  fill_grads(store, 0);
  opt.step();
  const std::vector<float> values = store.flatten_values();
  const std::string bytes =
      serialize_checkpoint(sample_state(), store, opt);

  ParameterStore restored = make_store();
  Adam ropt(restored, AdamOptions{});
  const TrainCheckpointState st =
      deserialize_checkpoint(bytes, restored, ropt);
  expect_state_eq(st, sample_state());
  EXPECT_EQ(restored.flatten_values(), values);
  EXPECT_EQ(ropt.steps_taken(), opt.steps_taken());
}

TEST_F(CheckpointTest, CorruptBytesAreRejectedBeforeLoading) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  const std::string bytes =
      serialize_checkpoint(sample_state(), store, opt);

  ParameterStore victim = make_store();
  Adam vopt(victim, AdamOptions{});
  const std::vector<float> untouched = victim.flatten_values();

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x01;
  EXPECT_THROW(deserialize_checkpoint(bad_magic, victim, vopt),
               CheckpointError);

  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(42);
  EXPECT_THROW(deserialize_checkpoint(bad_version, victim, vopt),
               CheckpointError);

  // Flip one payload byte: the CRC check must reject it before any state
  // reaches the store.
  std::string bit_flip = bytes;
  bit_flip[bytes.size() / 2] ^= 0x40;
  EXPECT_THROW(deserialize_checkpoint(bit_flip, victim, vopt),
               CheckpointError);

  std::string truncated = bytes.substr(0, bytes.size() - 8);
  EXPECT_THROW(deserialize_checkpoint(truncated, victim, vopt),
               CheckpointError);

  // A size field claiming 1 GiB over a file of about 1 KB fails typed (and
  // before anything that size is allocated); the directory scan skips it.
  ASSERT_LT(bytes.size(), 4096u);
  std::string lying_size = bytes;
  const std::uint64_t one_gib = 1ull << 30;
  std::memcpy(&lying_size[8], &one_gib, sizeof(one_gib));
  EXPECT_THROW(deserialize_checkpoint(lying_size, victim, vopt),
               CheckpointError);
  write_checkpoint(checkpoint_path(dir_.string(), 1), sample_state(), store,
                   opt);
  atomic_write_file(checkpoint_path(dir_.string(), 9), lying_size);
  EXPECT_EQ(fs::path(latest_checkpoint(dir_.string())).filename().string(),
            "ckpt-000001.ckpt");

  // CRC rejection happens before deserialization, so the target store was
  // never written to.
  EXPECT_EQ(victim.flatten_values(), untouched);
}

// The checkpoint byte layout is a compatibility contract: checkpoints
// written by earlier builds must keep resuming. The CRC-32 of a fixed
// checkpoint pins every byte of it.
TEST_F(CheckpointTest, SerializedBytesArePinned) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  const std::string bytes = serialize_checkpoint(sample_state(), store, opt);
  EXPECT_EQ(bytes.size(), 491u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x523fbcedu);
}

TEST_F(CheckpointTest, WriteAndReadCheckpointFile) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  fill_grads(store, 1);
  opt.step();
  const std::string path = checkpoint_path(dir_.string(), 7);
  EXPECT_EQ(fs::path(path).filename().string(), "ckpt-000007.ckpt");
  write_checkpoint(path, sample_state(), store, opt);

  ParameterStore restored = make_store();
  Adam ropt(restored, AdamOptions{});
  const TrainCheckpointState st = read_checkpoint(path, restored, ropt);
  expect_state_eq(st, sample_state());
  EXPECT_EQ(restored.flatten_values(), store.flatten_values());
}

TEST_F(CheckpointTest, ReadCheckpointMissingFileThrows) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  EXPECT_THROW(read_checkpoint((dir_ / "absent.ckpt").string(), store, opt),
               CheckpointError);
}

TEST_F(CheckpointTest, AtomicWriteReplacesAndLeavesNoTempFiles) {
  const std::string path = (dir_ / "file.ckpt").string();
  atomic_write_file(path, "first");
  atomic_write_file(path, "second");
  std::ifstream is(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no .tmp leftovers
}

TEST_F(CheckpointTest, LatestCheckpointPicksHighestValidEpoch) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  TrainCheckpointState st = sample_state();
  st.next_epoch = 1;
  write_checkpoint(checkpoint_path(dir_.string(), 1), st, store, opt);
  st.next_epoch = 3;
  write_checkpoint(checkpoint_path(dir_.string(), 3), st, store, opt);
  // A torn/garbage file with a plausible name must be skipped, not trusted
  // by filename.
  atomic_write_file(checkpoint_path(dir_.string(), 9), "garbage bytes");

  const std::string best = latest_checkpoint(dir_.string());
  EXPECT_EQ(fs::path(best).filename().string(), "ckpt-000003.ckpt");
}

TEST_F(CheckpointTest, LatestCheckpointOnMissingOrEmptyDir) {
  EXPECT_EQ(latest_checkpoint((dir_ / "nope").string()), "");
  EXPECT_EQ(latest_checkpoint(dir_.string()), "");
}

TEST_F(CheckpointTest, StepCursorAndEarlyStoppingStateRoundTrip) {
  ParameterStore store = make_store();
  Adam opt(store, AdamOptions{});
  const std::string bytes = serialize_checkpoint(sample_state(), store, opt);
  ParameterStore restored = make_store();
  Adam ropt(restored, AdamOptions{});
  const TrainCheckpointState st =
      deserialize_checkpoint(bytes, restored, ropt);
  EXPECT_EQ(st.global_step, 123u);

  // Early stopping continues from the restored (best, bad_epochs) pair:
  // one more non-improving epoch trips a patience of 3.
  EarlyStopping early(3);
  early.restore(st.early_best, st.early_bad_epochs);
  EXPECT_EQ(early.best(), 0.625);
  EXPECT_EQ(early.epochs_since_best(), 2u);
  EXPECT_FALSE(early.should_stop());
  early.update(0.5);
  EXPECT_TRUE(early.should_stop());
}

TEST_F(CheckpointTest, FingerprintSeparatesRunConfigurations) {
  GnnTrainConfig a;
  GnnTrainConfig b = a;
  EXPECT_EQ(checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 1),
            checkpoint_fingerprint(b, SamplerKind::kMatrixBulk, 1));
  b.seed = a.seed + 1;
  EXPECT_NE(checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 1),
            checkpoint_fingerprint(b, SamplerKind::kMatrixBulk, 1));
  EXPECT_NE(checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 1),
            checkpoint_fingerprint(a, SamplerKind::kReference, 1));
  EXPECT_NE(checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 1),
            checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 2));
  // Full graph (no sampler) differs from both ShaDow kinds and covers the
  // memory budget that decides which events it trains on.
  const std::uint64_t full = checkpoint_fingerprint(a, std::nullopt, 1);
  EXPECT_NE(full, checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 1));
  EXPECT_NE(full, checkpoint_fingerprint(a, SamplerKind::kReference, 1));
  b = a;
  b.memory_budget_bytes = 1 << 20;
  EXPECT_NE(full, checkpoint_fingerprint(b, std::nullopt, 1));
  EXPECT_EQ(checkpoint_fingerprint(a, SamplerKind::kMatrixBulk, 1),
            checkpoint_fingerprint(b, SamplerKind::kMatrixBulk, 1));
}

TEST_F(CheckpointTest, FingerprintsArePinned) {
  // A checkpoint resumes only under an equal fingerprint, so these values
  // must not drift: every change to them orphans the checkpoints earlier
  // builds wrote.
  const GnnTrainConfig config;
  EXPECT_EQ(checkpoint_fingerprint(config, std::nullopt, 1),
            0x318587dc985c97dcull);
  EXPECT_EQ(checkpoint_fingerprint(config, SamplerKind::kMatrixBulk, 1),
            0x51a12bce4248647cull);
  EXPECT_EQ(checkpoint_fingerprint(config, SamplerKind::kMatrixBulk, 2),
            0x7cd2f0da60078924ull);
}

}  // namespace
}  // namespace trkx

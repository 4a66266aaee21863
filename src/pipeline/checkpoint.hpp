#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/parameter.hpp"

namespace trkx {

struct GnnTrainConfig;
enum class SamplerKind;

/// Everything besides model parameters and optimizer moments that the
/// GNN training loop needs to continue a run bit-identically: the
/// epoch/step cursor, the shared batch-order RNG (sampling randomness is
/// keyed per (rank, epoch, event, batch) via Rng::stream, so it needs no
/// state here), model-selection and early-stopping state, and the
/// per-epoch loss/val trajectory so a resumed TrainResult matches the
/// uninterrupted one.
struct TrainCheckpointState {
  /// Hash of the run configuration (seed, batch geometry, sampler,
  /// world size, ...). Resuming under a different configuration cannot
  /// be bit-identical, so a mismatch is rejected.
  std::uint64_t fingerprint = 0;
  std::uint64_t next_epoch = 0;   ///< first epoch the resumed run executes
  std::uint64_t global_step = 0;  ///< optimizer steps taken so far
  std::uint64_t rng_state = 0;    ///< batch_rng splitmix state
  bool rng_have_spare = false;    ///< batch_rng Box–Muller spare cache
  double rng_spare = 0.0;
  double early_best = -1e300;     ///< EarlyStopping::best()
  std::uint64_t early_bad_epochs = 0;
  double best_f1 = -1.0;          ///< keep_best_weights tracking
  std::uint64_t best_epoch = 0;
  std::vector<float> best_weights;  ///< empty = no best snapshot yet

  /// One completed epoch's observable results (PhaseTimers are wall-time
  /// diagnostics, deliberately not checkpointed).
  struct EpochSummary {
    double train_loss = 0.0;
    std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;  ///< val edge counts
    double wall_seconds = 0.0;
  };
  std::vector<EpochSummary> epochs;
};

/// Serialize state + parameters + optimizer moments into a checkpoint
/// envelope: magic, version, payload size, CRC-32, payload. The CRC is
/// verified before anything is deserialized, so a torn or corrupt file
/// fails with CheckpointError instead of poisoning the model.
std::string serialize_checkpoint(const TrainCheckpointState& state,
                                 const ParameterStore& store,
                                 const Adam& opt);

/// Inverse of serialize_checkpoint: validates the envelope, then loads
/// parameters into `store` and moments into `opt`. Throws CheckpointError
/// on bad magic/version/CRC or layout mismatch, leaving both unchanged.
TrainCheckpointState deserialize_checkpoint(const std::string& bytes,
                                            ParameterStore& store, Adam& opt);

/// Read + deserialize a checkpoint file.
TrainCheckpointState read_checkpoint(const std::string& path,
                                     ParameterStore& store, Adam& opt);

/// Durable atomic file replacement: write to a unique temp file in the
/// destination directory, fsync it, rename() over `path`, fsync the
/// directory. A crash at any point leaves either the old file or the new
/// one — never a torn mix. Every checkpoint write in the repo must go
/// through this helper (enforced by the trkx-atomic-write analyzer rule).
void atomic_write_file(const std::string& path, const std::string& bytes);

/// serialize + atomic_write_file, with the obs metric checkpoint.write_ns.
void write_checkpoint(const std::string& path,
                      const TrainCheckpointState& state,
                      const ParameterStore& store, const Adam& opt);

/// atomic_write_file of pre-serialized checkpoint bytes (the emergency
/// path: survivors of a comm timeout write their retained epoch-boundary
/// blob without touching the model again).
void write_checkpoint_bytes(const std::string& path, const std::string& bytes);

/// Canonical checkpoint filename for a given epoch cursor:
/// `<dir>/ckpt-<next_epoch, zero-padded>.ckpt`.
std::string checkpoint_path(const std::string& dir, std::uint64_t next_epoch);

/// Scan `dir` for the valid checkpoint with the highest epoch cursor.
/// Files that fail envelope/CRC validation are skipped with a warning
/// (a torn write must not block resume from an older good checkpoint).
/// Returns "" when none is found (including when `dir` does not exist).
std::string latest_checkpoint(const std::string& dir);

/// Fingerprint of the parts of the run configuration that determine the
/// training trajectory. Resume requires an exact match. `sampler` is
/// nullopt for full-graph training, whose fingerprint also covers the
/// memory budget that decides which events it trains on.
std::uint64_t checkpoint_fingerprint(const GnnTrainConfig& config,
                                     std::optional<SamplerKind> sampler,
                                     int world_size);

}  // namespace trkx

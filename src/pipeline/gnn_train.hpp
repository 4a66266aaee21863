#pragma once

#include <memory>
#include <vector>

#include "detector/generator.hpp"
#include "dist/communicator.hpp"
#include "dist/gradient_sync.hpp"
#include "gnn/interaction_gnn.hpp"
#include "nn/optimizer.hpp"
#include "sampling/matrix_shadow.hpp"
#include "sampling/shadow.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace trkx {

/// An Interaction GNN plus its parameter store — one trainable replica.
struct GnnModel {
  IgnnConfig config;
  ParameterStore store;
  std::unique_ptr<InteractionGnn> gnn;

  GnnModel(const IgnnConfig& config, std::uint64_t seed);
};

/// Which ShaDow implementation drives minibatch training — the paper's
/// Figure 3/4 comparison axis.
enum class SamplerKind {
  kReference,   ///< Algorithm 2, one batch at a time ("PyG ShaDow" stand-in)
  kMatrixBulk,  ///< matrix-based bulk sampling (this paper's contribution)
};

/// Hyperparameters shared by every GNN training mode.
struct GnnTrainConfig {
  std::size_t epochs = 30;
  std::size_t batch_size = 256;  ///< global batch (vertices); 256/P per rank
  ShadowConfig shadow{};         ///< paper defaults d=3, s=6
  std::size_t bulk_k = 4;        ///< minibatches per bulk sampling call (k)
  float lr = 1e-3f;
  float pos_weight = 0.0f;       ///< 0 = auto from label imbalance
  float grad_clip = 5.0f;
  std::uint64_t seed = 3;
  /// Full-graph mode's memory wall (the paper's Section III-B): events
  /// whose estimated training footprint (full_graph_memory_estimate)
  /// exceeds this simulated device memory are skipped. 0 disables.
  std::size_t memory_budget_bytes = 0;
  SyncStrategy sync = SyncStrategy::kCoalesced;
  /// Sampler/trainer overlap: the producer task samples and gathers up to
  /// this many work units (one batch for the reference sampler, one
  /// bulk-k chunk for the matrix sampler) ahead of the training step.
  /// 0 = fully serial (sample → train per unit, the pre-pipeline
  /// behaviour). Sampling randomness is keyed per (rank, epoch, event,
  /// batch), so any depth produces bit-identical training trajectories.
  std::size_t prefetch_depth = 2;
  /// Producer threads backing the prefetch pipeline (per rank). One
  /// thread is enough to hide the sample phase behind forward/backward;
  /// see README "Thread budget" before raising it.
  std::size_t prefetch_threads = 1;
  bool evaluate_every_epoch = true;
  float eval_threshold = 0.5f;
  /// Early stopping on validation F1 after this many non-improving
  /// epochs; 0 disables. Requires evaluate_every_epoch. In DDP the
  /// rank-0 decision is broadcast so all ranks stop together.
  std::size_t early_stop_patience = 0;
  /// Keep a snapshot of the weights at the best validation F1 and restore
  /// it when training ends (model selection). Requires
  /// evaluate_every_epoch; in DDP the rank-0 decision is shared.
  bool keep_best_weights = false;
  /// Directory for training checkpoints (created if missing); "" disables
  /// checkpointing. Writes go through the atomic-rename helper in
  /// pipeline/checkpoint.hpp, so an interrupted write can never corrupt
  /// an existing checkpoint.
  std::string checkpoint_dir;
  /// Write a checkpoint every N completed epochs (>= 1). Survivors of a
  /// collective timeout additionally write an emergency checkpoint at the
  /// last completed epoch boundary regardless of this cadence.
  std::size_t checkpoint_every = 1;
  /// Resume from the newest valid checkpoint in checkpoint_dir (no-op
  /// when none exists). The checkpointed RNG cursor plus the per-(rank,
  /// epoch, event, batch) sampling streams make the resumed trajectory
  /// bit-identical to the uninterrupted run. A checkpoint written under a
  /// different run configuration is rejected with CheckpointError.
  bool resume = false;
};

/// Early stopping on a metric that should increase (validation F1).
/// Call update() once per epoch; should_stop() flips after `patience`
/// consecutive non-improving epochs.
class EarlyStopping {
 public:
  explicit EarlyStopping(std::size_t patience) : patience_(patience) {}

  /// Returns true if this value is a new best.
  bool update(double metric);
  bool should_stop() const { return bad_epochs_ >= patience_; }
  double best() const { return best_; }
  std::size_t epochs_since_best() const { return bad_epochs_; }

  /// Reinstate a previously observed (best, bad_epochs) pair — the
  /// checkpoint/resume path, so a resumed run stops at the same epoch the
  /// uninterrupted run would have.
  void restore(double best, std::size_t bad_epochs) {
    best_ = best;
    bad_epochs_ = bad_epochs;
  }

 private:
  std::size_t patience_;
  double best_ = -1e300;
  std::size_t bad_epochs_ = 0;
};

/// One epoch of bookkeeping: loss, validation edge metrics (Figure 4), and
/// the sampling/training/all-reduce time split (Figure 3).
struct EpochRecord {
  double train_loss = 0.0;
  BinaryMetrics val;
  PhaseTimers timers;
  double wall_seconds = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> epochs;
  std::size_t skipped_graphs = 0;  ///< full-graph mode only
  double total_seconds = 0.0;
  CommStats comm;  ///< DDP modes only
  /// Epoch whose weights the model ended with (last epoch unless
  /// keep_best_weights selected an earlier one).
  std::size_t selected_epoch = 0;

  /// Sum of a timer bucket over all epochs.
  double total_phase(const std::string& phase) const;
  const EpochRecord& last() const;
};

/// Edge precision/recall of full-graph inference over `events`.
/// Per-event predictions are independent, so events are scored in
/// parallel on a ThreadPool of `threads` workers (0 = one per event,
/// capped at the hardware concurrency; 1 = serial) and the per-event
/// counts merged in event order — the result is identical for any thread
/// count.
BinaryMetrics evaluate_edges(const GnnModel& model,
                             const std::vector<Event>& events,
                             float threshold = 0.5f,
                             std::size_t threads = 0);

/// The shard of a global minibatch owned by `rank` of `size`: a balanced
/// contiguous partition (first n mod size ranks get one extra element).
/// Shards exactly partition the batch; when the batch has fewer elements
/// than there are ranks, trailing ranks receive empty shards.
std::vector<std::uint32_t> shard_batch(const std::vector<std::uint32_t>& batch,
                                       int rank, int size);

/// Mean BCE pos_weight implied by the label imbalance of `events`.
float auto_pos_weight(const std::vector<Event>& events);

/// Estimated bytes of device memory a full-graph training step on `event`
/// would need on the paper's device (activations × 3, for gradients and
/// workspace) — the quantity its memory wall compares against GPU
/// capacity. This tape's own high-water is lower (Tape::peak_floats()).
std::size_t full_graph_memory_estimate(const IgnnConfig& config,
                                       const Event& event);

/// True if the event fits the config's memory budget for full-graph mode.
bool fits_memory_budget(const GnnTrainConfig& config, const IgnnConfig& gnn,
                        const Event& event);

/// Full-graph training: one gradient step per event graph per epoch, the
/// original Exa.TrkX regime, in the same epoch loop as ShaDow training
/// (validation, model selection, early stopping, checkpoints). Graphs over
/// config.memory_budget_bytes are skipped (counted once in
/// TrainResult::skipped_graphs); edgeless graphs take no step.
TrainResult train_full_graph(GnnModel& model, const std::vector<Event>& train,
                             const std::vector<Event>& val,
                             const GnnTrainConfig& config);

/// Single-process ShaDow minibatch training with the chosen sampler.
TrainResult train_shadow(GnnModel& model, const std::vector<Event>& train,
                         const std::vector<Event>& val,
                         const GnnTrainConfig& config, SamplerKind sampler);

/// Distributed-data-parallel ShaDow training over `runtime.size()` ranks:
/// each global minibatch is sharded 1/P per rank; gradients are averaged
/// with config.sync after every step. On return `model` holds the rank-0
/// replica (all replicas remain bitwise identical).
TrainResult train_shadow_ddp(GnnModel& model, const std::vector<Event>& train,
                             const std::vector<Event>& val,
                             const GnnTrainConfig& config,
                             DistRuntime& runtime, SamplerKind sampler);

}  // namespace trkx

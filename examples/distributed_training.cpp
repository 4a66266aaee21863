// Distributed data-parallel GNN training on simulated ranks.
//
//   ./distributed_training [--ranks 4] [--scale 0.06] [--epochs 3]
//       [--trace-out trace.json] [--metrics-out metrics.json]
//       [--checkpoint-dir DIR] [--resume] [--comm-timeout-ms MS]
//
// Trains the Interaction GNN with ShaDow minibatches sharded across P
// thread-backed ranks (the stand-in for one-process-per-GPU DDP), once
// with per-tensor all-reduce and once with the paper's coalesced
// all-reduce, and prints the communication statistics side by side.
// On this machine ranks share one CPU, so wall-clock numbers show
// correctness overheads only; the modelled column projects the α–β cost
// of the same call pattern on NVLink-class hardware (paper Section IV-A).
//
// Fault-tolerant mode: with --checkpoint-dir only the coalesced strategy
// runs (one run owns the checkpoint directory) and a resumable checkpoint
// is written every epoch. --comm-timeout-ms bounds every collective: if a
// rank dies (e.g. a TRKX_FAULTS rank-kill spec), the survivors observe
// CommTimeoutError instead of deadlocking, write an emergency checkpoint,
// and the process exits nonzero — rerun with --resume to continue.

#include <cstdio>

#include "detector/presets.hpp"
#include "obs/report.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

using namespace trkx;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ObsExport obs(args);  // --trace-out / --metrics-out
  fault::Registry::global().arm_from_env();  // TRKX_FAULTS chaos specs
  const int ranks = args.get_int("ranks", 4);
  const double scale = args.get_double("scale", 0.06);
  const std::size_t epochs = static_cast<std::size_t>(args.get_int("epochs", 3));
  const std::string checkpoint_dir = args.get("checkpoint-dir", "");
  // 0 = no collective timeout.
  const double comm_timeout_seconds =
      args.get_double("comm-timeout-ms", 0.0) / 1000.0;

  DatasetSpec spec = ex3_spec(scale);
  Dataset data =
      generate_dataset(spec.name, spec.detector, /*train=*/4, 1, 0, 33);

  IgnnConfig gnn;
  gnn.node_input_dim = spec.detector.node_feature_dim;
  gnn.edge_input_dim = spec.detector.edge_feature_dim;
  gnn.hidden_dim = 64;  // paper hidden dim → realistic parameter count
  gnn.num_layers = 4;
  gnn.mlp_hidden = 1;

  GnnTrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 256;
  cfg.shadow = {.depth = 2, .fanout = 4};
  cfg.bulk_k = 4;
  cfg.seed = 5;
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.resume = args.get_bool("resume", false);

  std::printf("model: %zu parameter matrices, %zu floats total\n",
              GnnModel(gnn, cfg.seed).store.count(),
              GnnModel(gnn, cfg.seed).store.total_size());

  // One strategy owns a checkpoint directory (the fingerprint covers the
  // sync strategy), so fault-tolerant mode runs coalesced only.
  std::vector<SyncStrategy> strategies;
  if (checkpoint_dir.empty()) {
    strategies = {SyncStrategy::kPerTensor, SyncStrategy::kCoalesced};
  } else {
    strategies = {SyncStrategy::kCoalesced};
    std::printf("fault-tolerant mode: coalesced only, checkpoints in %s%s\n",
                checkpoint_dir.c_str(), cfg.resume ? " (resuming)" : "");
  }

  try {
    for (SyncStrategy sync : strategies) {
      cfg.sync = sync;
      GnnModel model(gnn, cfg.seed);
      DistRuntime runtime(ranks, {}, comm_timeout_seconds);
      TrainResult result = train_shadow_ddp(model, data.train, data.val, cfg,
                                            runtime,
                                            SamplerKind::kMatrixBulk);
      const char* name =
          sync == SyncStrategy::kPerTensor ? "per-tensor" : "coalesced ";
      std::printf(
          "\n[%s] P=%d  final val P %.4f R %.4f\n", name, ranks,
          result.last().val.precision(), result.last().val.recall());
      std::printf("  all-reduce calls      %zu\n",
                  result.comm.all_reduce_calls);
      std::printf("  all-reduce bytes      %.1f MB\n",
                  result.comm.all_reduce_bytes / 1e6);
      std::printf("  measured comm time    %.3f s (threads on one CPU)\n",
                  result.comm.measured_seconds);
      std::printf("  modelled NVLink time  %.4f s (alpha-beta ring model)\n",
                  result.comm.modeled_seconds);
      std::printf("  epoch wall times     ");
      for (const auto& e : result.epochs)
        std::printf(" %.2fs", e.wall_seconds);
      std::printf("\n");
    }
  } catch (const Error& e) {
    // A dead rank or collective timeout unwinds every rank cleanly; the
    // survivors have already flushed an emergency checkpoint, so the run
    // is resumable with --resume.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  if (checkpoint_dir.empty()) {
    std::printf(
        "\nThe coalesced strategy issues one all-reduce per step instead of "
        "one per\nparameter matrix: same bytes, a fraction of the latency "
        "terms.\n");
  }
  return 0;
}

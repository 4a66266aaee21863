// Ablation A5: batch-size sweep for ShaDow minibatch training.
//
// The paper's §III-B motivation: small-batch SGD generalises better than
// the effectively huge batches of full-graph training (Keskar et al.).
// This harness trains the same GNN at several batch sizes (full-graph as
// the "batch = whole event" extreme) and reports final validation
// precision/recall/F1 plus time per epoch.
//
//   ./bench_batchsize [--scale 0.04] [--train 4] [--epochs 6]
//                     [--json-out batchsize.json]

#include <cstdio>

#include "bench_json.hpp"
#include "detector/presets.hpp"
#include "io/csv.hpp"
#include "pipeline/evaluation.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const double scale = args.get_double("scale", 0.04);
  const std::size_t n_train = static_cast<std::size_t>(args.get_int("train", 4));
  const std::size_t epochs = static_cast<std::size_t>(args.get_int("epochs", 6));

  DatasetSpec spec = ex3_spec(scale);
  Dataset data = generate_dataset(spec.name, spec.detector, n_train, 2, 0, 55);
  std::printf("=== Ablation: batch size vs convergence (Ex3-like) ===\n");
  std::printf("%zu graphs, avg %.0f vertices, %zu epochs\n\n", n_train,
              data.avg_vertices(), epochs);

  IgnnConfig gnn;
  gnn.node_input_dim = spec.detector.node_feature_dim;
  gnn.edge_input_dim = spec.detector.edge_feature_dim;
  gnn.hidden_dim = 32;
  gnn.num_layers = 3;
  gnn.mlp_hidden = 1;

  CsvWriter csv("batchsize_ablation.csv",
                {"batch", "precision", "recall", "f1", "auc",
                 "seconds_per_epoch"});
  std::printf("%-12s %-10s %-10s %-10s %-10s %-10s\n", "batch", "precision",
              "recall", "F1", "AUC", "s/epoch");
  BenchJsonWriter json("batchsize");

  for (std::size_t batch : {64u, 128u, 256u, 512u}) {
    GnnTrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batch_size = batch;
    cfg.shadow = {.depth = 2, .fanout = 4};
    cfg.bulk_k = 4;
    cfg.seed = 13;
    cfg.evaluate_every_epoch = false;
    GnnModel model(gnn, cfg.seed);
    TrainResult r = train_shadow(model, data.train, data.val, cfg,
                                 SamplerKind::kMatrixBulk);
    const BinaryMetrics val = evaluate_edges(model, data.val);
    const double auc = roc_auc(score_events(model, data.val));
    const double spe = r.total_seconds / static_cast<double>(epochs);
    std::printf("%-12zu %-10.4f %-10.4f %-10.4f %-10.4f %-10.2f\n", batch,
                val.precision(), val.recall(), val.f1(), auc, spe);
    csv.row(std::vector<double>{static_cast<double>(batch), val.precision(),
                                val.recall(), val.f1(), auc, spe});
    json.series("batch=" + std::to_string(batch))
        .param("batch", static_cast<long long>(batch))
        .metric("f1", val.f1())
        .metric("auc", auc)
        .metric("seconds_per_epoch", spe);
  }

  // Full-graph = the "batch is the whole event" extreme.
  {
    GnnTrainConfig cfg;
    cfg.epochs = epochs;
    cfg.seed = 13;
    cfg.evaluate_every_epoch = false;
    GnnModel model(gnn, cfg.seed);
    TrainResult r = train_full_graph(model, data.train, data.val, cfg);
    const BinaryMetrics val = evaluate_edges(model, data.val);
    const double auc = roc_auc(score_events(model, data.val));
    const double spe = r.total_seconds / static_cast<double>(epochs);
    std::printf("%-12s %-10.4f %-10.4f %-10.4f %-10.4f %-10.2f\n",
                "full-graph", val.precision(), val.recall(), val.f1(), auc,
                spe);
    csv.row(std::vector<std::string>{"full", format_double(val.precision()),
                                     format_double(val.recall()),
                                     format_double(val.f1()),
                                     format_double(auc), format_double(spe)});
    json.series("batch=full")
        .param("batch", "full")
        .metric("f1", val.f1())
        .metric("auc", auc)
        .metric("seconds_per_epoch", spe);
  }
  std::printf("\nseries written to batchsize_ablation.csv\n");
  const std::string json_path = args.get("json-out", "");
  if (json.write(json_path))
    std::printf("bench JSON written to %s\n", json_path.c_str());
  return 0;
}

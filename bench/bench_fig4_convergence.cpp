// Figure 4 reproduction: validation precision/recall convergence on Ex3
// for (a) full-graph training — the original Exa.TrkX regime, (b) ShaDow
// minibatch training with the reference per-batch sampler (the "PyG
// implementation" stand-in), and (c) ShaDow with our matrix-based bulk
// sampler.
//
// Paper claims to reproduce in shape:
//   * minibatch ShaDow converges to HIGHER precision and recall than
//     full-graph training;
//   * our implementation's curves track the reference implementation's
//     curves (no degradation from bulk sampling).
//
// Defaults are CPU-sized (scale 0.05, 6 train graphs, 10 epochs, 4-layer
// hidden-32 GNN); pass --scale/--epochs/--hidden/--layers to enlarge
// toward the paper's configuration (scale 1, 80 graphs, 30 epochs,
// hidden 64, 8 layers, batch 256, d=3, s=6).
//
//   ./bench_fig4_convergence [--scale 0.05] [--train 6] [--epochs 10]
//       [--batch 256] [--hidden 32] [--layers 4] [--depth 3] [--fanout 6]

#include <cstdio>

#include "bench_json.hpp"
#include "detector/presets.hpp"
#include "io/csv.hpp"
#include "pipeline/gnn_train.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const double scale = args.get_double("scale", 0.05);
  const std::size_t n_train = static_cast<std::size_t>(args.get_int("train", 6));
  const std::size_t epochs = static_cast<std::size_t>(args.get_int("epochs", 10));

  // The paper's Figure 4 uses Ex3; --dataset ctd runs the same comparison
  // on the dense CTD-like preset.
  DatasetSpec spec = args.get("dataset", "ex3") == "ctd"
                         ? ctd_spec(scale / 16.0)
                         : ex3_spec(scale);
  Dataset data = generate_dataset(spec.name, spec.detector, n_train, 2, 0, 77);
  std::printf("=== Figure 4: convergence on Ex3-like data ===\n");
  std::printf("scale %.3f: %zu train graphs, avg %.0f vertices / %.0f edges\n\n",
              scale, n_train, data.avg_vertices(), data.avg_edges());

  IgnnConfig gnn;
  gnn.node_input_dim = spec.detector.node_feature_dim;
  gnn.edge_input_dim = spec.detector.edge_feature_dim;
  gnn.hidden_dim = static_cast<std::size_t>(args.get_int("hidden", 32));
  gnn.num_layers = static_cast<std::size_t>(args.get_int("layers", 4));
  gnn.mlp_hidden = spec.mlp_hidden_layers - 1;

  GnnTrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = static_cast<std::size_t>(args.get_int("batch", 256));
  cfg.shadow.depth = static_cast<std::size_t>(args.get_int("depth", 3));
  cfg.shadow.fanout = static_cast<std::size_t>(args.get_int("fanout", 6));
  cfg.bulk_k = 4;
  cfg.seed = 42;

  struct Curve {
    const char* name;
    TrainResult result;
  };
  std::vector<Curve> curves;
  {
    GnnModel model(gnn, cfg.seed);
    std::printf("training full-graph...\n");
    curves.push_back(
        {"full-graph", train_full_graph(model, data.train, data.val, cfg)});
  }
  {
    GnnModel model(gnn, cfg.seed);
    std::printf("training shadow (reference sampler, PyG stand-in)...\n");
    curves.push_back({"shadow-pyg", train_shadow(model, data.train, data.val,
                                                 cfg, SamplerKind::kReference)});
  }
  {
    GnnModel model(gnn, cfg.seed);
    std::printf("training shadow (matrix bulk sampler, ours)...\n");
    curves.push_back({"shadow-ours",
                      train_shadow(model, data.train, data.val, cfg,
                                   SamplerKind::kMatrixBulk)});
  }

  CsvWriter csv("fig4_convergence.csv",
                {"epoch", "mode", "precision", "recall", "loss"});
  std::printf("\n%-7s | %-23s | %-23s | %-23s\n", "", curves[0].name,
              curves[1].name, curves[2].name);
  std::printf("%-7s | %-11s %-11s | %-11s %-11s | %-11s %-11s\n", "epoch",
              "precision", "recall", "precision", "recall", "precision",
              "recall");
  for (std::size_t e = 0; e < epochs; ++e) {
    std::printf("%-7zu", e);
    for (const Curve& c : curves) {
      const auto& m = c.result.epochs[e].val;
      std::printf(" | %-11.4f %-11.4f", m.precision(), m.recall());
      csv.row(std::vector<std::string>{
          std::to_string(e), c.name, format_double(m.precision()),
          format_double(m.recall()),
          format_double(c.result.epochs[e].train_loss)});
    }
    std::printf("\n");
  }

  BenchJsonWriter json("fig4_convergence");
  for (const Curve& c : curves) {
    const auto& last = c.result.last().val;
    json.series(c.name)
        .param("mode", c.name)
        .metric("final_precision", last.precision())
        .metric("final_recall", last.recall())
        .metric("final_f1", last.f1())
        .metric("total_seconds", c.result.total_seconds);
  }
  const std::string json_path = args.get("json-out", "");
  if (json.write(json_path))
    std::printf("bench JSON written to %s\n", json_path.c_str());

  const auto& full = curves[0].result.last().val;
  const auto& pyg = curves[1].result.last().val;
  const auto& ours = curves[2].result.last().val;
  std::printf("\npaper-shape checks:\n");
  std::printf("  minibatch beats full-graph precision: %s (%.4f vs %.4f)\n",
              ours.precision() > full.precision() ? "YES" : "no",
              ours.precision(), full.precision());
  std::printf("  minibatch beats full-graph recall:    %s (%.4f vs %.4f)\n",
              ours.recall() > full.recall() ? "YES" : "no", ours.recall(),
              full.recall());
  std::printf("  ours tracks reference (|dF1| < 0.1):  %s (F1 %.4f vs %.4f)\n",
              std::abs(ours.f1() - pyg.f1()) < 0.1 ? "YES" : "no", ours.f1(),
              pyg.f1());
  std::printf("series written to fig4_convergence.csv\n");
  return 0;
}

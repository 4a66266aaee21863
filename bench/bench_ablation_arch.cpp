// Ablation A7: architecture/design choices called out in DESIGN.md —
// each trained briefly on the same Ex3-like data and compared on final
// validation quality and parameter count:
//
//   base            — distinct per-layer MLPs, LayerNorm, auto pos_weight
//   shared-weights  — one MLP pair shared across message-passing layers
//   no-layernorm    — LayerNorm disabled in every MLP
//   pos-weight-1    — unweighted BCE (ignores class imbalance)
//   depth-2 / depth-6 — message-passing depth sweep around the base (4)
//
//   ./bench_ablation_arch [--scale 0.04] [--train 4] [--epochs 5]

#include <cstdio>

#include "bench_json.hpp"
#include "detector/presets.hpp"
#include "gnn/gcn.hpp"
#include "io/csv.hpp"
#include "pipeline/evaluation.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;

namespace {

struct Variant {
  const char* name;
  IgnnConfig gnn;
  GnnTrainConfig train;
};

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const double scale = args.get_double("scale", 0.04);
  const std::size_t n_train = static_cast<std::size_t>(args.get_int("train", 4));
  const std::size_t epochs = static_cast<std::size_t>(args.get_int("epochs", 5));

  DatasetSpec spec = ex3_spec(scale);
  Dataset data = generate_dataset(spec.name, spec.detector, n_train, 2, 0, 66);
  std::printf("=== Ablation: architecture choices (Ex3-like, %zu epochs) ===\n\n",
              epochs);

  IgnnConfig base_gnn;
  base_gnn.node_input_dim = spec.detector.node_feature_dim;
  base_gnn.edge_input_dim = spec.detector.edge_feature_dim;
  base_gnn.hidden_dim = 32;
  base_gnn.num_layers = 4;
  base_gnn.mlp_hidden = 1;
  base_gnn.layer_norm = true;

  GnnTrainConfig base_train;
  base_train.epochs = epochs;
  base_train.batch_size = 128;
  base_train.shadow = {.depth = 2, .fanout = 4};
  base_train.bulk_k = 4;
  base_train.seed = 19;
  base_train.evaluate_every_epoch = false;

  std::vector<Variant> variants;
  variants.push_back({"base", base_gnn, base_train});
  {
    Variant v{"shared-weights", base_gnn, base_train};
    v.gnn.shared_weights = true;
    variants.push_back(v);
  }
  {
    Variant v{"no-layernorm", base_gnn, base_train};
    v.gnn.layer_norm = false;
    variants.push_back(v);
  }
  {
    Variant v{"pos-weight-1", base_gnn, base_train};
    v.train.pos_weight = 1.0f;
    variants.push_back(v);
  }
  {
    // No message passing at all: an MLP on encoded edge features. The gap
    // to "base" quantifies what graph context buys.
    Variant v{"no-msg-passing", base_gnn, base_train};
    v.gnn.num_layers = 0;
    variants.push_back(v);
  }
  {
    // Attention-gated aggregation (extension beyond the paper).
    Variant v{"attention", base_gnn, base_train};
    v.gnn.attention = true;
    variants.push_back(v);
  }
  {
    Variant v{"depth-2", base_gnn, base_train};
    v.gnn.num_layers = 2;
    variants.push_back(v);
  }
  {
    Variant v{"depth-6", base_gnn, base_train};
    v.gnn.num_layers = 6;
    variants.push_back(v);
  }

  CsvWriter csv("arch_ablation.csv",
                {"variant", "params", "precision", "recall", "f1", "auc",
                 "train_seconds"});
  BenchJsonWriter json("ablation_arch");
  std::printf("%-16s %-9s %-10s %-10s %-10s %-10s %-9s\n", "variant",
              "params", "precision", "recall", "F1", "AUC", "time[s]");
  for (const Variant& v : variants) {
    GnnModel model(v.gnn, v.train.seed);
    TrainResult r = train_shadow(model, data.train, data.val, v.train,
                                 SamplerKind::kMatrixBulk);
    const BinaryMetrics val = evaluate_edges(model, data.val);
    const double auc = roc_auc(score_events(model, data.val));
    std::printf("%-16s %-9zu %-10.4f %-10.4f %-10.4f %-10.4f %-9.1f\n",
                v.name, model.store.total_size(), val.precision(),
                val.recall(), val.f1(), auc, r.total_seconds);
    csv.row(std::vector<std::string>{
        v.name, std::to_string(model.store.total_size()),
        format_double(val.precision()), format_double(val.recall()),
        format_double(val.f1()), format_double(auc),
        format_double(r.total_seconds)});
    json.series(v.name)
        .param("variant", v.name)
        .metric("params", static_cast<double>(model.store.total_size()))
        .metric("f1", val.f1())
        .metric("auc", auc)
        .metric("train_seconds", r.total_seconds);
  }
  // Model-family baseline: a GCN edge classifier (no per-edge hidden
  // state), trained full-graph for the same wall-clock scale.
  {
    GcnConfig gcn_cfg;
    gcn_cfg.node_input_dim = spec.detector.node_feature_dim;
    gcn_cfg.edge_input_dim = spec.detector.edge_feature_dim;
    gcn_cfg.hidden_dim = 32;
    gcn_cfg.num_layers = 4;
    ParameterStore store;
    Rng rng(base_train.seed);
    GcnEdgeClassifier gcn(store, gcn_cfg, rng);
    Adam opt(store, AdamOptions{.lr = 3e-3f});
    const float pos_weight = auto_pos_weight(data.train);
    WallTimer timer;
    for (std::size_t epoch = 0; epoch < epochs * 4; ++epoch) {
      for (const Event& e : data.train) {
        const CsrMatrix norm_adj =
            GcnEdgeClassifier::normalized_adjacency(e.graph);
        std::vector<float> labels(e.edge_labels.begin(), e.edge_labels.end());
        TapeContext ctx;
        Var logits = gcn.forward(ctx, norm_adj, e.node_features,
                                 e.edge_features, e.graph.src_indices(),
                                 e.graph.dst_indices());
        Var loss =
            ctx.tape().bce_with_logits(logits, labels, {}, pos_weight);
        opt.zero_grad();
        ctx.backward(loss);
        opt.step();
      }
    }
    BinaryMetrics val;
    ScoredEdges scored;
    for (const Event& e : data.val) {
      const auto probs =
          gcn.predict(e.node_features, e.edge_features, e.graph);
      for (std::size_t i = 0; i < probs.size(); ++i) {
        val.add(probs[i] >= 0.5f, e.edge_labels[i] != 0);
        scored.add(probs[i], e.edge_labels[i] != 0);
      }
    }
    std::printf("%-16s %-9zu %-10.4f %-10.4f %-10.4f %-10.4f %-9.1f\n",
                "gcn-baseline", store.total_size(), val.precision(),
                val.recall(), val.f1(), roc_auc(scored), timer.seconds());
    csv.row(std::vector<std::string>{
        "gcn-baseline", std::to_string(store.total_size()),
        format_double(val.precision()), format_double(val.recall()),
        format_double(val.f1()), format_double(roc_auc(scored)),
        format_double(timer.seconds())});
    json.series("gcn-baseline")
        .param("variant", "gcn-baseline")
        .metric("params", static_cast<double>(store.total_size()))
        .metric("f1", val.f1())
        .metric("auc", roc_auc(scored))
        .metric("train_seconds", timer.seconds());
  }

  std::printf("\nseries written to arch_ablation.csv\n");
  const std::string json_path = args.get("json-out", "");
  if (json.write(json_path))
    std::printf("bench JSON written to %s\n", json_path.c_str());
  return 0;
}

// End-to-end track reconstruction on an Ex3-like dataset.
//
//   ./track_reconstruction [--scale 0.08] [--train 8] [--epochs 5]
//                          [--save model.bin] [--load model.bin]
//                          [--deadline-ms 0]
//
// Trains every pipeline stage on synthetic Ex3-like events (the sparse
// dataset of the paper's Table I, scaled for CPU), evaluates track-level
// physics metrics on held-out events, and optionally round-trips the whole
// pipeline through disk: --save writes the model-file format that
// `trkx-serve --model` loads, --load reads one instead of training.
//
// With --deadline-ms N the test events run through the serving layer
// (src/serve) with a per-event wall-clock budget: an event that blows the
// budget fails with a *typed* DeadlineExceededError and the program exits
// with code 2 and a readable message — not an unchecked exception.

#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <vector>

#include "detector/presets.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/track_fit.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;

namespace {

/// Serve-mode evaluation: each test event becomes one request with a
/// per-request deadline. Returns the process exit code.
int run_with_deadline(std::unique_ptr<TrackingPipeline> pipeline,
                      const PipelineConfig& cfg, const DatasetSpec& spec,
                      const std::vector<Event>& test, std::size_t node_dim,
                      std::size_t edge_dim, long deadline_ms) {
  serve::ServeConfig serve_cfg;
  serve_cfg.workers = 1;
  serve_cfg.queue_depth = test.size() + 1;
  serve_cfg.default_deadline_ms = deadline_ms;
  serve_cfg.b_field_tesla = spec.detector.b_field;
  serve::ReplicaSet replicas(node_dim, edge_dim, cfg);
  replicas.install(std::move(pipeline), "example");
  serve::ServeServer server(replicas, serve_cfg);
  server.start();

  std::printf("\ntest-set reconstruction (deadline %ld ms/event):\n",
              deadline_ms);
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(test.size());
  for (const Event& event : test)
    futures.push_back(server.submit(event, serve::Priority::kNormal));
  int exit_code = 0;
  for (std::future<serve::ServeResult>& f : futures) {
    try {
      const serve::ServeResult r = f.get();
      std::printf("  event: %4zu candidates, %4zu fits, %.1f ms\n",
                  r.tracks.size(), r.fits.size(), r.total_seconds() * 1e3);
    } catch (const serve::DeadlineExceededError& e) {
      std::printf("  event: DEADLINE EXCEEDED — %s\n", e.what());
      exit_code = 2;  // typed failure, reported and mapped to an exit code
    }
  }
  server.stop();
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double scale = args.get_double("scale", 0.08);
  const std::size_t n_train = static_cast<std::size_t>(args.get_int("train", 8));
  const std::size_t epochs = static_cast<std::size_t>(args.get_int("epochs", 5));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  const long deadline_ms = args.get_int("deadline-ms", 0);

  DatasetSpec spec = ex3_spec(scale);
  Dataset data = generate_dataset(spec.name, spec.detector, n_train, 2, 2, seed);
  std::printf("dataset %s (scale %.3f): avg %.0f vertices, %.0f edges\n",
              spec.name.c_str(), scale, data.avg_vertices(), data.avg_edges());

  PipelineConfig cfg;
  cfg.embedding.epochs = 5;
  cfg.filter.epochs = 4;
  cfg.gnn.hidden_dim = 32;
  cfg.gnn.num_layers = 4;
  cfg.gnn.mlp_hidden = spec.mlp_hidden_layers - 1;  // Table I MLP depth
  cfg.gnn_train.epochs = epochs;
  cfg.gnn_train.batch_size = 256;
  cfg.gnn_train.shadow = {.depth = 3, .fanout = 6};  // paper hyperparams
  cfg.gnn_train.bulk_k = 4;
  cfg.gnn_train.keep_best_weights = true;  // model selection on val F1
  cfg.use_learned_graphs = false;

  auto pipeline = std::make_unique<TrackingPipeline>(
      spec.detector.node_feature_dim, spec.detector.edge_feature_dim, cfg);

  if (args.has("load")) {
    std::ifstream is(args.get("load", ""), std::ios::binary);
    TRKX_CHECK_MSG(is.good(), "cannot open model file");
    pipeline->load(is);
    std::printf("loaded pipeline from %s\n", args.get("load", "").c_str());
  } else {
    TrainResult fit = pipeline->fit(data.train, data.val);
    std::printf("\nper-epoch validation metrics:\n");
    std::printf("%-8s %-10s %-10s %-10s\n", "epoch", "loss", "precision",
                "recall");
    for (std::size_t e = 0; e < fit.epochs.size(); ++e)
      std::printf("%-8zu %-10.4f %-10.4f %-10.4f\n", e,
                  fit.epochs[e].train_loss, fit.epochs[e].val.precision(),
                  fit.epochs[e].val.recall());
  }

  if (args.has("save")) {
    std::ostringstream os;
    pipeline->save(os);
    atomic_write_file(args.get("save", ""), os.str());
    std::printf("saved pipeline to %s\n", args.get("save", "").c_str());
  }

  if (deadline_ms > 0) {
    return run_with_deadline(std::move(pipeline), cfg, spec, data.test,
                             spec.detector.node_feature_dim,
                             spec.detector.edge_feature_dim, deadline_ms);
  }

  std::printf("\ntest-set reconstruction:\n");
  TrackingMetrics total;
  BinaryMetrics edge_total;
  FitResolution fits;
  std::size_t fit_events = 0;
  for (const Event& event : data.test) {
    PipelineOutput out = pipeline->reconstruct(event);
    total.merge(out.metrics);
    edge_total.merge(out.edge_metrics);
    // Fit helix parameters to the matched candidates and accumulate the
    // physics resolutions (stage beyond the paper: parameter estimation).
    const FitResolution res =
        evaluate_fits(event, out.tracks, spec.detector.b_field);
    fits.fitted += res.fitted;
    fits.failed += res.failed;
    fits.pt_resolution += res.pt_resolution;
    fits.z0_resolution += res.z0_resolution;
    fits.charge_correct_fraction += res.charge_correct_fraction;
    ++fit_events;
    std::printf("  event: %4zu candidates, efficiency %.3f, fake rate %.3f\n",
                out.tracks.size(), out.metrics.efficiency(),
                out.metrics.fake_rate());
  }
  std::printf("\noverall: efficiency %.3f  fake rate %.3f  "
              "edge precision %.3f  edge recall %.3f\n",
              total.efficiency(), total.fake_rate(), edge_total.precision(),
              edge_total.recall());
  if (fit_events > 0 && fits.fitted > 0) {
    const double n = static_cast<double>(fit_events);
    std::printf("track fits: %zu fitted, pt resolution %.1f%%, z0 "
                "resolution %.2f mm, charge correct %.1f%%\n",
                fits.fitted, 100.0 * fits.pt_resolution / n,
                fits.z0_resolution / n,
                100.0 * fits.charge_correct_fraction / n);
  }
  return 0;
}

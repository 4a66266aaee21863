// Ablation A8: the GPU memory wall that motivates the paper (§III-B).
//
// Full-graph training must skip events whose activation footprint exceeds
// device memory, losing training data; ShaDow minibatch training never
// skips because its footprint is bounded by the sampled receptive field.
// This bench sweeps a simulated device-memory budget over CTD-like events
// (the dense dataset where the paper observed skipping) and reports what
// fraction of events — and of labelled edges — survives.
//
//   ./bench_memory_wall [--scale 0.01] [--events 12] [--hidden 64]
//                       [--layers 8]

#include <algorithm>
#include <cstdio>

#include "bench_json.hpp"
#include "detector/presets.hpp"
#include "io/csv.hpp"
#include "pipeline/gnn_train.hpp"
#include "sampling/matrix_shadow.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const double scale = args.get_double("scale", 0.01);
  const std::size_t n_events =
      static_cast<std::size_t>(args.get_int("events", 12));

  DatasetSpec spec = ctd_spec(scale);
  std::vector<Event> events;
  Rng rng(71);
  for (std::size_t i = 0; i < n_events; ++i) {
    Rng er = rng.split();
    events.push_back(generate_event(spec.detector, er));
  }

  IgnnConfig gnn;
  gnn.node_input_dim = spec.detector.node_feature_dim;
  gnn.edge_input_dim = spec.detector.edge_feature_dim;
  gnn.hidden_dim = static_cast<std::size_t>(args.get_int("hidden", 64));
  gnn.num_layers = static_cast<std::size_t>(args.get_int("layers", 8));
  gnn.mlp_hidden = spec.mlp_hidden_layers - 1;

  std::printf("=== Ablation: the full-graph memory wall (CTD-like) ===\n");
  std::printf("%zu events; IGNN hidden %zu, %zu layers (paper config)\n\n",
              events.size(), gnn.hidden_dim, gnn.num_layers);

  // Per-event footprint distribution.
  std::vector<std::size_t> footprint;
  std::size_t total_edges = 0;
  for (const Event& e : events) {
    footprint.push_back(full_graph_memory_estimate(gnn, e));
    total_edges += e.num_edges();
  }
  std::printf("per-event full-graph footprint: min %.1f MB, max %.1f MB\n\n",
              *std::min_element(footprint.begin(), footprint.end()) / 1e6,
              *std::max_element(footprint.begin(), footprint.end()) / 1e6);

  CsvWriter csv("memory_wall.csv",
                {"budget_mb", "events_kept", "events_total",
                 "edge_fraction_kept"});
  std::printf("%-12s %-14s %-18s\n", "budget[MB]", "events kept",
              "labelled edges kept");
  BenchJsonWriter json("memory_wall");
  // Sweep budgets across the footprint distribution: midpoints between
  // consecutive event footprints (plus the extremes) so every transition
  // shows up.
  std::vector<std::size_t> sorted_fp = footprint;
  std::sort(sorted_fp.begin(), sorted_fp.end());
  std::vector<double> budgets{static_cast<double>(sorted_fp.front()) / 2e6};
  for (std::size_t i = 0; i + 1 < sorted_fp.size(); ++i)
    budgets.push_back((static_cast<double>(sorted_fp[i]) +
                       static_cast<double>(sorted_fp[i + 1])) /
                      2e6);
  budgets.push_back(static_cast<double>(sorted_fp.back()) * 1.05 / 1e6);
  for (double budget_mb : budgets) {
    GnnTrainConfig cfg;
    cfg.memory_budget_bytes =
        static_cast<std::size_t>(budget_mb * 1e6);
    std::size_t kept = 0, kept_edges = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (fits_memory_budget(cfg, gnn, events[i])) {
        ++kept;
        kept_edges += events[i].num_edges();
      }
    }
    const double edge_frac =
        static_cast<double>(kept_edges) / static_cast<double>(total_edges);
    std::printf("%-12.1f %zu / %-10zu %-18.3f\n", budget_mb, kept,
                events.size(), edge_frac);
    csv.row(std::vector<double>{budget_mb, static_cast<double>(kept),
                                static_cast<double>(events.size()),
                                edge_frac});
    char label[32];
    std::snprintf(label, sizeof label, "budget=%.1fMB", budget_mb);
    json.series(label)
        .param("budget_mb", format_double(budget_mb))
        .metric("events_kept", static_cast<double>(kept))
        .metric("edge_fraction_kept", edge_frac);
  }

  // ShaDow comparison: sample an actual batch-256 subgraph from the
  // largest event and measure its footprint — bounded by the receptive
  // field, not the event, so minibatch training never skips.
  const auto largest = std::max_element(
      events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.num_edges() < b.num_edges();
      });
  MatrixShadowSampler sampler(largest->graph, {.depth = 3, .fanout = 6});
  Rng srng(5);
  auto batches = make_minibatches(largest->num_hits(), 256, srng);
  const ShadowSample sample = sampler.sample(batches.front(), srng);
  const std::size_t shadow_bytes =
      ignn_activation_estimate(gnn, sample.sub.graph.num_vertices(),
                               sample.sub.graph.num_edges()) *
      sizeof(float) * 3;
  std::printf(
      "\nShaDow minibatch footprint on the largest event (batch 256, d=3, "
      "s=6):\n%.1f MB (%zu vertices, %zu edges) — bounded by the sampled "
      "receptive field\nand INDEPENDENT of event size, so no events are "
      "ever skipped.\n",
      shadow_bytes / 1e6, sample.sub.graph.num_vertices(),
      sample.sub.graph.num_edges());
  // Projection to the paper's full-scale CTD events (Table I averages):
  const std::size_t paper_fp =
      ignn_activation_estimate(gnn, 330700, 6900000) * sizeof(float) * 3;
  std::printf(
      "projection: a full-scale CTD event (330.7K vertices, 6.9M edges) "
      "needs %.0f GB\nfor full-graph training — far beyond a 40 GB A100, "
      "while the ShaDow batch\nfootprint above is unchanged. This is the "
      "skipping the paper reports.\n",
      paper_fp / 1e9);
  json.series("shadow_footprint")
      .param("batch", "256")
      .metric("shadow_mb", shadow_bytes / 1e6)
      .metric("paper_fullgraph_gb", paper_fp / 1e9);
  std::printf("series written to memory_wall.csv\n");
  const std::string json_path = args.get("json-out", "");
  if (json.write(json_path))
    std::printf("bench JSON written to %s\n", json_path.c_str());
  return 0;
}

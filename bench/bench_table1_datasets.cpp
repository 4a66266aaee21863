// Table I reproduction: dataset summary statistics.
//
// Generates the two synthetic dataset presets (CTD-like and Ex3-like) and
// prints the same columns the paper's Table I reports, next to the paper's
// values. Ex3 is generated at full scale; CTD at 1/16 scale with the
// paper-matching edges-per-vertex density (see DESIGN.md §2 for the
// substitution rationale). A CSV with the series is written next to the
// binary.
//
//   ./bench_table1_datasets [--events 8] [--ex3-scale 1.0]
//                           [--ctd-scale 0.0625] [--seed 1]
//                           [--json-out table1.json]

#include <cstdio>

#include "bench_json.hpp"
#include "detector/presets.hpp"
#include "io/csv.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace trkx;

namespace {

struct Row {
  DatasetSpec spec;
  double avg_vertices = 0.0;
  double avg_edges = 0.0;
  double positive_fraction = 0.0;
};

Row measure(DatasetSpec spec, std::size_t events, std::uint64_t seed) {
  Row row;
  row.spec = spec;
  Rng rng(seed);
  for (std::size_t i = 0; i < events; ++i) {
    Rng er = rng.split();
    Event e = generate_event(spec.detector, er);
    row.avg_vertices += static_cast<double>(e.num_hits());
    row.avg_edges += static_cast<double>(e.num_edges());
    row.positive_fraction += e.positive_edge_fraction();
  }
  row.avg_vertices /= static_cast<double>(events);
  row.avg_edges /= static_cast<double>(events);
  row.positive_fraction /= static_cast<double>(events);
  return row;
}

std::string human(double v) {
  char buf[32];
  if (v >= 1e6)
    std::snprintf(buf, sizeof buf, "%.1fM", v / 1e6);
  else if (v >= 1e3)
    std::snprintf(buf, sizeof buf, "%.1fK", v / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  ArgParser args(argc, argv);
  const std::size_t events =
      static_cast<std::size_t>(args.get_int("events", 8));
  const double ex3_scale = args.get_double("ex3-scale", 1.0);
  const double ctd_scale = args.get_double("ctd-scale", 1.0 / 16.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::printf("=== Table I: datasets (paper vs this reproduction) ===\n");
  std::printf("averaged over %zu generated events per dataset\n\n", events);

  const Row rows[] = {
      measure(ctd_spec(ctd_scale), events, seed),
      measure(ex3_spec(ex3_scale), events, seed + 1),
  };

  std::printf("%-6s %-7s | %-12s %-12s | %-12s %-12s | %-10s %-6s %-6s\n",
              "Name", "Graphs", "Vertices(p)", "Vertices", "Edges(p)",
              "Edges", "MLP-Layers", "VtxF", "EdgeF");
  CsvWriter csv("table1_datasets.csv",
                {"name", "scale", "avg_vertices", "avg_edges",
                 "paper_vertices", "paper_edges", "edges_per_vertex",
                 "paper_edges_per_vertex", "positive_fraction"});
  BenchJsonWriter json("table1_datasets");
  for (const Row& r : rows) {
    // The paper uses 80 train / 10 val / 10 test graphs for both datasets.
    std::printf("%-6s %-7s | %-12s %-12s | %-12s %-12s | %-10zu %-6zu %-6zu\n",
                r.spec.name.c_str(), "80",
                human(r.spec.paper_avg_vertices * r.spec.scale).c_str(),
                human(r.avg_vertices).c_str(),
                human(r.spec.paper_avg_edges * r.spec.scale).c_str(),
                human(r.avg_edges).c_str(), r.spec.mlp_hidden_layers,
                r.spec.detector.node_feature_dim,
                r.spec.detector.edge_feature_dim);
    csv.row(std::vector<double>{
        r.spec.name == "CTD" ? 0.0 : 1.0, r.spec.scale, r.avg_vertices,
        r.avg_edges, r.spec.paper_avg_vertices, r.spec.paper_avg_edges,
        r.avg_edges / r.avg_vertices,
        r.spec.paper_avg_edges / r.spec.paper_avg_vertices,
        r.positive_fraction});
    json.series(r.spec.name)
        .param("dataset", r.spec.name)
        .metric("avg_vertices", r.avg_vertices)
        .metric("avg_edges", r.avg_edges)
        .metric("edges_per_vertex", r.avg_edges / r.avg_vertices)
        .metric("positive_fraction", r.positive_fraction);
  }
  std::printf(
      "\n(p) columns are the paper's Table I values scaled by the preset's\n"
      "generation scale (CTD %.4f, Ex3 %.4f); the edges-per-vertex density\n"
      "target is the paper's full-scale ratio (CTD %.1f, Ex3 %.1f).\n",
      ctd_scale, ex3_scale, 6.9e6 / 330.7e3, 47.8e3 / 13.0e3);
  std::printf("measured: CTD %.1f  Ex3 %.1f edges/vertex\n",
              rows[0].avg_edges / rows[0].avg_vertices,
              rows[1].avg_edges / rows[1].avg_vertices);
  std::printf("series written to table1_datasets.csv\n");
  const std::string json_path = args.get("json-out", "");
  if (json.write(json_path))
    std::printf("bench JSON written to %s\n", json_path.c_str());
  return 0;
}

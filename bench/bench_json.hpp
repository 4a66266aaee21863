// Unified machine-readable benchmark artifact.
//
// Every bench that opts in accepts --json-out <path> and writes schema v2:
//
//   {"schema": "trkx-bench-v2",
//    "bench": "<name>",
//    "manifest": {... RunManifest: git sha, build type, host, threads ...},
//    "series": [{"name": "<series>",
//                "params": {"<key>": "<value>", ...},
//                "metrics": {"<key>": <number>, ...}}, ...]}
//
// scripts/check_bench_json.py validates this shape (perf-smoke label),
// and scripts/trkx-bench merges the per-bench artifacts into
// the committed BENCH_*.json perf trajectory that
// scripts/check_regression.py gates against.

#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"
#include "util/error.hpp"

namespace trkx {

/// Collects named series of (params, metrics) and dumps them as JSON.
class BenchJsonWriter {
 public:
  struct Series {
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
    std::vector<std::pair<std::string, double>> metrics;

    Series& param(const std::string& key, const std::string& value) {
      params.emplace_back(key, value);
      return *this;
    }
    Series& param(const std::string& key, long long value) {
      return param(key, std::to_string(value));
    }
    Series& metric(const std::string& key, double value) {
      metrics.emplace_back(key, value);
      return *this;
    }
  };

  explicit BenchJsonWriter(std::string bench) : bench_(std::move(bench)) {}

  Series& series(const std::string& name) {
    series_.push_back(Series{name, {}, {}});
    return series_.back();
  }

  /// Write the artifact; no-op (returns false) when path is empty.
  bool write(const std::string& path) const {
    if (path.empty()) return false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    TRKX_CHECK_MSG(f != nullptr, "cannot open bench JSON output: " + path);
    const std::string stamp = RunManifest::collect(bench_).to_json();
    std::fprintf(f,
                 "{\"schema\": \"trkx-bench-v2\", \"bench\": %s,\n"
                 " \"manifest\": %s,\n \"series\": [",
                 quote(bench_).c_str(), stamp.c_str());
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const Series& s = series_[i];
      std::fprintf(f, "%s\n  {\"name\": %s, \"params\": {",
                   i == 0 ? "" : ",", quote(s.name).c_str());
      for (std::size_t j = 0; j < s.params.size(); ++j)
        std::fprintf(f, "%s%s: %s", j == 0 ? "" : ", ",
                     quote(s.params[j].first).c_str(),
                     quote(s.params[j].second).c_str());
      std::fprintf(f, "}, \"metrics\": {");
      for (std::size_t j = 0; j < s.metrics.size(); ++j) {
        std::fprintf(f, "%s%s: ", j == 0 ? "" : ", ",
                     quote(s.metrics[j].first).c_str());
        const double v = s.metrics[j].second;
        if (std::isfinite(v))
          std::fprintf(f, "%.9g", v);
        else
          std::fprintf(f, "null");  // non-finite is not valid JSON
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  std::string bench_;
  std::vector<Series> series_;
};

}  // namespace trkx

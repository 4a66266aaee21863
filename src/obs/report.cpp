#include "obs/report.hpp"

#include <exception>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace trkx {

namespace {
std::string flag_or_env(const ArgParser& args, const std::string& flag,
                        const char* env) {
  std::string v = args.get(flag, "");
  if (v.empty()) v = env::get_string(env);
  return v;
}

int period_flag(const ArgParser& args) {
  const int v = args.get_int("timeseries-period-ms", 200);
  return v > 0 ? v : 200;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}
}  // namespace

ObsExport::ObsExport(const ArgParser& args)
    : trace_path_(flag_or_env(args, "trace-out", "TRKX_TRACE")),
      metrics_path_(flag_or_env(args, "metrics-out", "TRKX_METRICS")),
      timeseries_path_(
          flag_or_env(args, "timeseries-out", "TRKX_TIMESERIES")),
      timeseries_period_ms_(period_flag(args)) {
  set_run_tool(basename_of(args.program()));
  arm();
}

ObsExport::ObsExport(std::string trace_path, std::string metrics_path,
                     std::string timeseries_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)),
      timeseries_path_(std::move(timeseries_path)) {
  arm();
}

void ObsExport::arm() {
  if (!trace_path_.empty()) TraceSession::global().start();
  if (!timeseries_path_.empty()) {
    MetricsSnapshotter::global().start(
        {.path = timeseries_path_, .period_ms = timeseries_period_ms_});
  }
}

void ObsExport::flush() {
  if (flushed_) return;
  flushed_ = true;
  if (!timeseries_path_.empty()) {
    MetricsSnapshotter::global().stop();
    TRKX_INFO << "wrote time series to " << timeseries_path_;
  }
  if (!trace_path_.empty()) {
    TraceSession::global().write_json(trace_path_);
    TRKX_INFO << "wrote trace (" << TraceSession::global().event_count()
              << " spans) to " << trace_path_;
  }
  if (!metrics_path_.empty()) {
    MetricsRegistry::global().write_json(metrics_path_,
                                         /*with_manifest=*/true);
    TRKX_INFO << "wrote metrics to " << metrics_path_;
  }
}

ObsExport::~ObsExport() {
  // A failed dump (e.g. unwritable path) must not abort the program via a
  // throwing destructor after the run itself succeeded.
  try {
    flush();
  } catch (const std::exception& e) {
    TRKX_ERROR << "observability dump failed: " << e.what();
  }
}

}  // namespace trkx

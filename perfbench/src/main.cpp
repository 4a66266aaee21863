// trkx_perfbench: one workload of the train-and-serve benchmark per call.
//
//   trkx_perfbench --workload NAME --kind train|serve --seed N --seconds S
//                  --trace 0|1 [--trace-out spans.json] <workload constants>
//
// perfbench/run.py builds this binary, passes the workload's constants from
// perfbench/workloads.json, and turns the final RESULT line into the
// benchmark's output. Exit status: 0 when every output check passed, 1 when
// one failed, 2 on an error that stopped the run.

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "util/error.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string Params::str(const std::string& key) const {
  TRKX_CHECK_MSG(args_.has(key), "missing workload constant --" << key);
  return args_.get(key, "");
}

double Params::num(const std::string& key) const {
  const std::string s = str(key);
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  TRKX_CHECK_MSG(used == s.size() && std::isfinite(v),
                 "--" << key << ": not a number: " << s);
  return v;
}

long Params::integer(const std::string& key) const {
  const double v = num(key);
  TRKX_CHECK_MSG(v == std::floor(v), "--" << key << ": not an integer");
  return static_cast<long>(v);
}

std::size_t Params::count(const std::string& key) const {
  const long v = integer(key);
  TRKX_CHECK_MSG(v >= 0, "--" << key << ": must be >= 0");
  return static_cast<std::size_t>(v);
}

EventKeys choose_event_keys(const trkx::DetectorConfig& config,
                            std::uint64_t seed, std::uint64_t split,
                            std::size_t count, double nominal_hits,
                            double nominal_edges, double tolerance) {
  constexpr std::uint64_t kInputTag = 0x50455246424e4348ull;
  constexpr std::uint64_t kMaxAttempts = 10000;
  EventKeys keys;
  keys.seed = seed ^ kInputTag;
  keys.split = split;
  for (std::size_t slot = 0; slot < count; ++slot) {
    std::uint64_t attempt = 0;
    for (;; ++attempt) {
      TRKX_CHECK_MSG(attempt < kMaxAttempts,
                     "no event within " << tolerance * 100 << "% of "
                                        << nominal_hits << " hits and "
                                        << nominal_edges << " edges");
      trkx::Rng rng = trkx::Rng::stream(keys.seed, split, slot, attempt);
      const trkx::Event e = trkx::generate_event(config, rng);
      const auto near = [&](std::size_t n, double nominal) {
        return std::fabs(static_cast<double>(n) - nominal) <=
               tolerance * nominal;
      };
      if (near(e.num_hits(), nominal_hits) &&
          (nominal_edges <= 0.0 || near(e.num_edges(), nominal_edges)))
        break;
    }
    keys.attempt.push_back(attempt);
  }
  return keys;
}

std::vector<trkx::Event> generate(const trkx::DetectorConfig& config,
                                  const EventKeys& keys) {
  std::vector<trkx::Event> events;
  events.reserve(keys.attempt.size());
  for (std::size_t slot = 0; slot < keys.attempt.size(); ++slot) {
    trkx::Rng rng =
        trkx::Rng::stream(keys.seed, keys.split, slot, keys.attempt[slot]);
    events.push_back(trkx::generate_event(config, rng));
  }
  return events;
}

void note_threads(Report& report, const std::string& layout, int threads) {
  const unsigned nproc = std::thread::hardware_concurrency();
  char line[256];
  std::snprintf(line, sizeof line,
                "threads: %s = %d started, nproc %u, OMP max threads %d",
                layout.c_str(), threads, nproc, omp_get_max_threads());
  report.note(line);
  report.check("thread budget",
               nproc == 0 || threads <= static_cast<int>(nproc),
               std::to_string(threads) + " threads on " +
                   std::to_string(nproc) + " cores");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  trkx::set_log_level(trkx::LogLevel::kWarn);
  try {
    const trkx::ArgParser args(argc, argv);
    const Params params(args);
    RunContext ctx;
    ctx.workload = params.str("workload");
    ctx.seed = static_cast<std::uint64_t>(params.integer("seed"));
    ctx.seconds = params.num("seconds");
    ctx.trace = params.integer("trace") != 0;
    ctx.trace_out = args.get("trace-out", "");
    ctx.sabotage = args.get("sabotage", "");
    TRKX_CHECK_MSG(ctx.seconds > 0.0, "--seconds must be positive");

    Report report;
    const std::string kind = params.str("kind");
    if (kind == "train") {
      run_train(ctx, params, report);
    } else if (kind == "serve") {
      run_serve(ctx, params, report);
    } else {
      throw trkx::Error("unknown --kind " + kind);
    }
    report.print();
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trkx_perfbench: %s\n", e.what());
    return 2;
  }
}

// The benchmark's workloads. Every size, rate and limit arrives on the
// command line from perfbench/workloads.json (run.py passes them), so the
// constants live in one data file and are never recalibrated at run time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detector/generator.hpp"
#include "report.hpp"
#include "util/cli.hpp"

namespace perfbench {

/// Command-line view with required keys: a missing constant is an error,
/// not a silent default.
class Params {
 public:
  explicit Params(const trkx::ArgParser& args) : args_(args) {}
  std::string str(const std::string& key) const;
  double num(const std::string& key) const;
  long integer(const std::string& key) const;
  std::size_t count(const std::string& key) const;

 private:
  const trkx::ArgParser& args_;
};

/// What every workload shares: identity, seed, timing budget, and the
/// traced-run switch. `sabotage` names one output check the self-test
/// deliberately breaks, to prove the run then fails.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  std::string sabotage;
  Clock::time_point origin = Clock::now();
};

/// Events whose hit and candidate-edge counts lie within `tolerance` (a
/// fraction) of the nominal sizes, so input size does not drift with the
/// seed; a nominal edge count <= 0 leaves edges unchecked. Candidates are
/// drawn from seeded streams keyed by (split, slot, attempt); only the
/// chosen keys are returned, and generate() rebuilds the events from them
/// inside the timed set-up.
struct EventKeys {
  std::uint64_t seed = 0;
  std::uint64_t split = 0;
  std::vector<std::uint64_t> attempt;  ///< per slot
};
EventKeys choose_event_keys(const trkx::DetectorConfig& config,
                            std::uint64_t seed, std::uint64_t split,
                            std::size_t count, double nominal_hits,
                            double nominal_edges, double tolerance);
std::vector<trkx::Event> generate(const trkx::DetectorConfig& config,
                                  const EventKeys& keys);

/// Thread layout line: every thread the workload starts, against nproc.
void note_threads(Report& report, const std::string& layout, int threads);

void run_train(const RunContext& ctx, const Params& params, Report& report);
void run_serve(const RunContext& ctx, const Params& params, Report& report);

}  // namespace perfbench

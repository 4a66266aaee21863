#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/annotations.hpp"

namespace trkx {

/// α–β (latency–bandwidth) model of a ring all-reduce on a GPU cluster.
///
/// The in-process runtime below executes all-reduces for real (threads and
/// shared memory), but this repo runs on one CPU, so wall-clock numbers
/// cannot show NVLink-scale effects. The model reports what each call
/// *would* cost on hardware like the paper's Perlmutter nodes:
///   T(bytes, P) = 2(P-1)·α + 2·(P-1)/P · bytes / β
/// Defaults approximate NCCL over NVLink 3.0 (α ≈ 15 µs per step,
/// β ≈ 100 GB/s unidirectional, figures from the paper's Section IV-A).
struct AllReduceCostModel {
  double alpha_seconds = 15e-6;
  double beta_bytes_per_second = 100e9;

  double seconds(std::size_t bytes, int num_ranks) const {
    if (num_ranks <= 1) return 0.0;
    const double p = static_cast<double>(num_ranks);
    const double bytes_d = static_cast<double>(bytes);
    // NOLINT(trkx-div-guard): p >= 2 after the early return; beta > 0
    const double bw = (p - 1.0) / p / beta_bytes_per_second * bytes_d;
    return 2.0 * (p - 1.0) * alpha_seconds + 2.0 * bw;
  }
};

/// Counters a Communicator accumulates per rank.
struct CommStats {
  std::size_t all_reduce_calls = 0;
  std::size_t all_reduce_bytes = 0;
  double modeled_seconds = 0.0;  ///< cost-model time for this rank's calls
  double measured_seconds = 0.0; ///< wall time actually spent in all-reduce
};

/// Reusable cyclic barrier with a timeout and a poison ("abort") path —
/// what makes a dead rank survivable. std::barrier blocks forever when a
/// participant never arrives; here every waiter bounds its wait, and the
/// first rank to notice trouble (timeout or an exception anywhere)
/// poisons the barrier so *every* current and future wait throws
/// CommTimeoutError instead of deadlocking.
class TimeoutBarrier {
 public:
  /// `timeout_seconds` <= 0 waits forever (the pre-fault-tolerance
  /// behaviour, still the default for fully trusted in-process runs).
  TimeoutBarrier(int parties, double timeout_seconds);

  /// Block until all parties arrive. Throws CommTimeoutError when the
  /// timeout expires or the barrier is (or becomes) aborted.
  void arrive_and_wait();

  /// Poison the barrier: wake all waiters, make every present and future
  /// arrive_and_wait throw CommTimeoutError citing `reason`.
  void abort(const std::string& reason);

  bool aborted() const;

 private:
  const int parties_;
  const double timeout_seconds_;
  mutable Mutex mutex_;
  CondVar cv_;
  int arrived_ TRKX_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ TRKX_GUARDED_BY(mutex_) = 0;
  bool aborted_ TRKX_GUARDED_BY(mutex_) = false;
  std::string abort_reason_ TRKX_GUARDED_BY(mutex_);
};

class DistRuntime;

/// Per-rank handle for collective communication. Semantics follow MPI /
/// NCCL: every rank must call each collective the same number of times
/// with the same buffer size, and results are bitwise identical across
/// ranks (reduction order is fixed by rank).
///
/// Fault behaviour: when any rank dies or hangs, every other rank's
/// in-flight (and subsequent) collective throws CommTimeoutError rather
/// than deadlocking — callers unwind, checkpoint, and exit resumable.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  void barrier();

  /// In-place sum across ranks; every rank ends with the identical total.
  /// Implemented as reduce-scatter + all-gather over shared memory (the
  /// data movement pattern of a ring all-reduce).
  void all_reduce_sum(std::span<float> data);

  /// Sum a scalar across ranks (convenience for loss/metric averaging).
  double all_reduce_scalar(double value);

  /// Broadcast from root into data on every rank.
  void broadcast(std::span<float> data, int root);

  /// Concatenate every rank's `local` contribution in rank order; all
  /// ranks receive the identical concatenation. Contributions may have
  /// different lengths (an all-gatherv). Used by the 1D-partitioned
  /// graph kernels to assemble the full feature matrix from per-rank
  /// row blocks.
  std::vector<float> all_gather(std::span<const float> local);

  const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CommStats{}; }

 private:
  friend class DistRuntime;
  Communicator(DistRuntime* runtime, int rank)
      : runtime_(runtime), rank_(rank) {}
  DistRuntime* runtime_;
  int rank_;
  CommStats stats_;
};

/// Hosts P ranks as threads sharing one address space — the stand-in for
/// the paper's one-process-per-GPU DDP launch. See DESIGN.md §2 for why
/// this substitution preserves the phenomena being measured.
class DistRuntime {
 public:
  /// `comm_timeout_seconds` bounds every collective wait: 0 = no
  /// timeout; > 0 is the bound in seconds.
  explicit DistRuntime(int num_ranks,
                       AllReduceCostModel cost_model = AllReduceCostModel{},
                       double comm_timeout_seconds = 0.0);
  ~DistRuntime();

  int size() const { return num_ranks_; }

  /// Run fn(comm) on every rank concurrently; returns when all finish.
  /// A rank whose fn throws poisons the shared barrier, so surviving
  /// ranks fail fast with CommTimeoutError instead of waiting out the
  /// timeout. The most informative exception is rethrown: the first (by
  /// rank) non-CommTimeoutError root cause if any rank recorded one,
  /// otherwise the first error seen.
  void run(const std::function<void(Communicator&)>& fn);

  /// Per-rank exception from the last run() (nullptr = rank succeeded).
  /// Lets a supervisor distinguish the rank that died (RankKilledError)
  /// from the survivors that timed out (CommTimeoutError).
  std::exception_ptr rank_error(int rank) const;

  /// The effective collective timeout in seconds (0 = none).
  double comm_timeout_seconds() const { return comm_timeout_seconds_; }

  /// Stats aggregated over ranks from the last run() (max over ranks for
  /// times, rank-0 values for call counts).
  CommStats aggregate_stats() const;

 private:
  friend class Communicator;
  int num_ranks_;
  AllReduceCostModel cost_model_;
  double comm_timeout_seconds_ = 0.0;
  std::unique_ptr<TimeoutBarrier> barrier_;
  // The exchange buffers below are synchronised by barrier_ phases, not a
  // mutex (each collective is publish → barrier → read → barrier, with
  // writers touching disjoint rank slots / chunks between barriers), so
  // they carry no TRKX_GUARDED_BY capability — the barrier's
  // arrive_and_wait provides the happens-before edges TSan checks.
  std::vector<float*> contrib_;
  std::vector<const float*> gather_ptrs_;
  std::vector<std::size_t> gather_sizes_;
  std::vector<float> reduce_buf_;
  std::size_t current_count_ = 0;
  std::vector<Communicator> comms_;
  // Written by thread r into slot r, read after join — no lock needed.
  std::vector<std::exception_ptr> rank_errors_;
};

}  // namespace trkx

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/degrade.hpp"
#include "serve/queue.hpp"
#include "serve/replica.hpp"
#include "util/parallel_guard.hpp"

namespace trkx::serve {

/// Runtime shape of the inference server; the defaults are sized for the
/// perf-smoke scale used in tests. ServeServer rejects invalid values
/// with trkx::Error.
struct ServeConfig {
  int workers = 2;
  std::size_t queue_depth = 8;
  /// Default per-request wall-clock budget in ms applied by the
  /// two-argument submit(); 0 = unbounded.
  std::int64_t default_deadline_ms = 0;
  /// Per-stage latency budget in ms; a stage exceeding it counts as a
  /// failed attempt (retried within the budget, then StageTimeoutError).
  /// 0 = no per-stage timeout.
  std::int64_t stage_timeout_ms = 0;
  /// Stage attempts beyond the first; 0 = fail fast.
  int retry_budget = 1;
  double b_field_tesla = 2.0;  ///< solenoid field for the fit stage [T]
  DegradeConfig degrade{};
};

/// One consistent snapshot of the server's failure-mode accounting. Every
/// value is also a serve.* counter in the global metrics registry; this
/// struct exists so tests and the trkx-serve driver can assert on deltas
/// without string lookups.
struct ServeCounters {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;  ///< OverloadError at admission
  std::uint64_t rejected_shed_low = 0;    ///< ladder level >= 1, kLow shed
  std::uint64_t rejected_admit_fault = 0; ///< injected serve.admit fault
  std::uint64_t shed_queued = 0;          ///< queued kLow failed on escalation
  std::uint64_t deadline_expired = 0;     ///< abandoned before/between stages
  std::uint64_t stage_timeouts = 0;       ///< attempts past stage_timeout_ms
  std::uint64_t retries = 0;              ///< stage attempts beyond the first
  std::uint64_t retries_exhausted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       ///< requests finished with an exception
  std::uint64_t fit_skipped = 0;  ///< requests served at skip-fit or above
};

/// The event-stream inference server: N workers draining a bounded
/// admission queue, each request running the five-stage pipeline against
/// an atomically-swappable warm replica. The design goal is that the
/// server *degrades instead of dying* — every failure mode (full queue,
/// expired deadline, stage timeout, exhausted retries, injected fault)
/// surfaces as a typed trkx::serve error on that request's future plus a
/// serve.* counter, and never as a dead worker or a killed process.
///
/// Fault sites: serve.admit (admission), serve.stage (before every stage
/// attempt), serve.checkpoint_reload (inside ReplicaSet).
class ServeServer {
 public:
  ServeServer(ReplicaSet& replicas, const ServeConfig& config);
  ~ServeServer();

  /// Spawn the worker pool. Requires a replica to be installed.
  void start();

  /// Close admission, drain queued requests (workers finish what was
  /// accepted), join workers, and rethrow the first worker-fatal error if
  /// one escaped the per-request handling. Idempotent.
  void stop();

  /// Hand one event to the server. Returns the future carrying either a
  /// ServeResult or one of the typed serve errors. Throws immediately —
  /// the fast rejection path — on a full queue (OverloadError), a shed
  /// priority class (OverloadError), an injected serve.admit fault
  /// (OverloadError), or a stopped server (ServerStoppedError).
  std::future<ServeResult> submit(Event event, Priority priority,
                                  Deadline deadline);
  /// Same, with the config's default deadline applied.
  std::future<ServeResult> submit(Event event, Priority priority);

  ServeCounters counters() const;
  std::size_t queue_depth() const { return queue_.depth(); }
  int degrade_level() const { return degrade_.level(); }
  std::uint64_t degrade_transitions() const { return degrade_.transitions(); }
  const ServeConfig& config() const { return config_; }

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

 private:
  /// Thread entry: wraps worker_loop in the ExceptionBarrier so a fatal
  /// worker error surfaces at stop() instead of std::terminate.
  void worker_entry();
  void worker_loop();
  /// The request path proper: the pipeline's stage sequence
  /// (TrackingPipeline::run_stages) with every stage wrapped in
  /// run_stage. TRKX_HOT — its closure must stay allocation- and
  /// blocking-free (enforced by trkx-analyze).
  TRKX_HOT ServeResult run_request(const ModelReplica& replica,
                                   const StagePlan& plan,
                                   Request& request) const;
  /// One stage with an inter-stage deadline check, retry/timeout
  /// accounting and timing; `body` is re-runnable (run_stages' contract).
  /// Declared here, instantiated only in server.cpp.
  template <typename Fn>
  void run_stage(Stage stage, const Deadline& deadline, ServeResult& result,
                 Fn&& body) const;

  const ServeConfig config_;
  ReplicaSet& replicas_;
  AdmissionQueue queue_;
  DegradeController degrade_;
  ExceptionBarrier barrier_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> next_id_{0};

  // Metric handles resolved once at construction so the hot request path
  // never touches the registry's name-lookup (first-call registration
  // allocates).
  Counter* accepted_;
  Counter* rejected_full_;
  Counter* rejected_shed_;
  Counter* rejected_fault_;
  Counter* shed_queued_;
  Counter* deadline_expired_;
  Counter* stage_timeout_;
  Counter* retry_;
  Counter* retry_exhausted_;
  Counter* completed_;
  Counter* failed_;
  Counter* fit_skipped_;
  Gauge* queue_gauge_;
  Histogram* latency_ms_;
  Histogram* stage_ms_[kNumStages];
};

}  // namespace trkx::serve

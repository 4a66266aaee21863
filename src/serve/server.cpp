#include "serve/server.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "util/fault.hpp"
#include "util/log.hpp"

namespace trkx::serve {

ServeServer::ServeServer(ReplicaSet& replicas, const ServeConfig& config)
    : config_(config),
      replicas_(replicas),
      queue_(config.queue_depth),
      degrade_(config.degrade) {
  TRKX_CHECK_MSG(config_.workers >= 1, "ServeConfig: workers must be >= 1");
  TRKX_CHECK_MSG(config_.retry_budget >= 0,
                 "ServeConfig: retry_budget must be >= 0");
  TRKX_CHECK_MSG(config_.default_deadline_ms >= 0,
                 "ServeConfig: default_deadline_ms must be >= 0");
  TRKX_CHECK_MSG(config_.stage_timeout_ms >= 0,
                 "ServeConfig: stage_timeout_ms must be >= 0");
  MetricsRegistry& reg = metrics();
  accepted_ = &reg.counter("serve.accepted");
  rejected_full_ = &reg.counter("serve.rejected.queue_full");
  rejected_shed_ = &reg.counter("serve.rejected.shed_low");
  rejected_fault_ = &reg.counter("serve.rejected.admit_fault");
  shed_queued_ = &reg.counter("serve.shed.queued");
  deadline_expired_ = &reg.counter("serve.deadline.expired");
  stage_timeout_ = &reg.counter("serve.stage.timeout");
  retry_ = &reg.counter("serve.retry");
  retry_exhausted_ = &reg.counter("serve.retry.exhausted");
  completed_ = &reg.counter("serve.completed");
  failed_ = &reg.counter("serve.failed");
  fit_skipped_ = &reg.counter("serve.fit.skipped");
  queue_gauge_ = &reg.gauge("serve.queue.depth");
  latency_ms_ = &reg.histogram("serve.latency.ms");
  for (int s = 0; s < kNumStages; ++s) {
    stage_ms_[s] = &reg.histogram(std::string("serve.stage.") +
                                  stage_name(static_cast<Stage>(s)) + ".ms");
  }
}

ServeServer::~ServeServer() {
  try {
    stop();
  } catch (const std::exception& e) {
    TRKX_WARN << "serve: error during shutdown: " << e.what();
  }
}

void ServeServer::start() {
  TRKX_CHECK_MSG(!started_.exchange(true), "ServeServer::start called twice");
  replicas_.acquire();  // fail fast when no replica was installed
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_entry(); });
  }
  TRKX_INFO << "serve: started " << config_.workers
            << " worker(s), queue depth " << config_.queue_depth;
}

void ServeServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (!stopped_.exchange(true)) queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // If a worker died (barrier captured its error below), its queued
  // requests were never drained — fail their promises instead of letting
  // callers hang on the future.
  while (std::optional<Request> req = queue_.pop(0)) {
    failed_->add(1);
    req->result.set_exception(std::make_exception_ptr(
        ServerStoppedError("serve: server stopped before request ran")));
  }
  queue_gauge_->set(0.0);
  barrier_.rethrow();
}

std::future<ServeResult> ServeServer::submit(Event event, Priority priority) {
  return submit(std::move(event), priority,
                Deadline::after_ms(config_.default_deadline_ms));
}

std::future<ServeResult> ServeServer::submit(Event event, Priority priority,
                                             Deadline deadline) {
  if (!started_.load(std::memory_order_acquire) ||
      stopped_.load(std::memory_order_acquire)) {
    throw ServerStoppedError("serve: submit on a stopped server");
  }
  try {
    fault::inject("serve.admit");
  } catch (const FaultInjectedError& e) {
    rejected_fault_->add(1);
    throw OverloadError(std::string("serve: admission rejected by injected "
                                    "fault: ") +
                        e.what());
  }
  if (priority == Priority::kLow && degrade_.plan().shed_low) {
    rejected_shed_->add(1);
    throw OverloadError(
        "serve: low-priority request shed (degradation ladder >= shed-low)");
  }
  Request request(next_id_.fetch_add(1) + 1, priority, deadline,
                  std::move(event));
  std::future<ServeResult> future = request.result.get_future();
  try {
    queue_.push(std::move(request));
  } catch (const OverloadError&) {
    rejected_full_->add(1);
    throw;
  }
  accepted_->add(1);
  queue_gauge_->set(static_cast<double>(queue_.depth()));
  degrade_.update(queue_.occupancy());
  return future;
}

void ServeServer::worker_entry() {
  // Thread entry point: an escaping exception would be std::terminate.
  // Capture into the barrier instead; stop() rethrows on its caller.
  barrier_.run([this] { worker_loop(); });
}

void ServeServer::worker_loop() {
  for (;;) {
    std::optional<Request> req = queue_.pop(/*wait_ms=*/50);
    queue_gauge_->set(static_cast<double>(queue_.depth()));
    const int level = degrade_.update(queue_.occupancy());
    if (level >= 1) {
      const std::size_t dropped =
          queue_.shed(Priority::kLow, config_.queue_depth);
      if (dropped > 0) {
        shed_queued_->add(dropped);
        failed_->add(dropped);
      }
    }
    if (!req.has_value()) {
      if (queue_.closed()) return;
      continue;  // pop timed out; re-check the ladder and keep draining
    }
    Request request = std::move(*req);
    if (request.deadline.expired()) {
      deadline_expired_->add(1);
      failed_->add(1);
      std::ostringstream os;
      os << "serve: request " << request.id
         << " abandoned in queue, deadline overshot by "
         << request.deadline.overshoot_ms() << " ms";
      request.result.set_exception(
          std::make_exception_ptr(DeadlineExceededError(os.str())));
      continue;
    }
    const std::shared_ptr<const ModelReplica> replica = replicas_.acquire();
    const StagePlan plan = degrade_.plan();
    try {
      ServeResult result = run_request(*replica, plan, request);
      result.latency_seconds =
          std::chrono::duration<double>(Deadline::Clock::now() -
                                        request.submitted_at)
              .count();
      latency_ms_->observe(result.latency_seconds * 1e3);
      completed_->add(1);
      request.result.set_value(std::move(result));
    } catch (const Error&) {
      failed_->add(1);
      request.result.set_exception(std::current_exception());
    }
  }
}

template <typename Fn>
void ServeServer::run_stage(Stage stage, const Deadline& deadline,
                            ServeResult& result, Fn&& body) const {
  const int idx = static_cast<int>(stage);
  for (int attempt = 0;; ++attempt) {
    if (deadline.expired()) {
      deadline_expired_->add(1);
      std::ostringstream os;
      os << "serve: deadline expired before stage " << stage_name(stage)
         << " (overshoot " << deadline.overshoot_ms() << " ms)";
      throw DeadlineExceededError(os.str());
    }
    bool timed_out = false;
    std::string attempt_error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      fault::inject("serve.stage");
      body();
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      // NOLINT(trkx-kernel-dispatch): scalar telemetry sum, not a kernel
      result.stage_seconds[idx] += ms * 1e-3;
      stage_ms_[idx]->observe(ms);
      if (config_.stage_timeout_ms <= 0 ||
          ms <= static_cast<double>(config_.stage_timeout_ms)) {
        return;  // the stage attempt succeeded within budget
      }
      stage_timeout_->add(1);
      timed_out = true;
      std::ostringstream os;
      os << "stage " << stage_name(stage) << " took " << ms
         << " ms (budget " << config_.stage_timeout_ms << " ms)";
      attempt_error = os.str();
    } catch (const DeadlineExceededError&) {
      throw;  // not an attempt failure: the request's budget is gone
    } catch (const Error& e) {
      attempt_error = e.what();
    }
    if (attempt >= config_.retry_budget) {
      std::ostringstream os;
      os << "serve: stage " << stage_name(stage) << " failed after "
         << attempt + 1 << " attempt(s): " << attempt_error;
      if (timed_out) throw StageTimeoutError(os.str());
      retry_exhausted_->add(1);
      throw RetryExhaustedError(os.str());
    }
    retry_->add(1);
    ++result.retries;
  }
}

ServeResult ServeServer::run_request(const ModelReplica& replica,
                                     const StagePlan& plan,
                                     Request& request) const {
  ServeResult result;
  result.degrade_level = plan.level;
  result.replica_generation = replica.generation;
  result.fit_skipped = plan.skip_fit;
  Event event = std::move(request.event);
  std::vector<float> scores;
  replica.pipeline->run_stages(
      event, plan.filter_threshold_scale,
      plan.skip_fit ? std::nullopt
                    : std::optional<double>(config_.b_field_tesla),
      [&](Stage stage, const auto& body) {
        run_stage(stage, request.deadline, result, body);
      },
      scores, result.tracks, result.fits);
  if (plan.skip_fit) fit_skipped_->add(1);
  return result;
}

ServeCounters ServeServer::counters() const {
  ServeCounters c;
  c.accepted = accepted_->value();
  c.rejected_queue_full = rejected_full_->value();
  c.rejected_shed_low = rejected_shed_->value();
  c.rejected_admit_fault = rejected_fault_->value();
  c.shed_queued = shed_queued_->value();
  c.deadline_expired = deadline_expired_->value();
  c.stage_timeouts = stage_timeout_->value();
  c.retries = retry_->value();
  c.retries_exhausted = retry_exhausted_->value();
  c.completed = completed_->value();
  c.failed = failed_->value();
  c.fit_skipped = fit_skipped_->value();
  return c;
}

}  // namespace trkx::serve

#pragma once

#include <string>

#include "util/error.hpp"

namespace trkx::serve {

/// Serving failure modes. Every way a request can fail maps to exactly one
/// of these types (plus an obs counter — see server.cpp), so callers can
/// select a policy per mode: a load balancer retries OverloadError
/// elsewhere, a client treats DeadlineExceededError as its own timeout,
/// and RetryExhaustedError is the only one worth paging on. None of them
/// ever terminates the server process.

/// Admission control rejected the request: the bounded queue is full, or
/// the degradation ladder is shedding this priority class. Deliberately
/// raised *fast* (before any stage work) — overload must cost the server
/// almost nothing per rejected request.
class OverloadError : public Error {
 public:
  using Error::Error;
};

/// The request's deadline passed. Raised at the inter-stage checks, so at
/// most one stage of work is wasted past the deadline; the message names
/// the stage at which the request was abandoned.
class DeadlineExceededError : public Error {
 public:
  using Error::Error;
};

/// One stage attempt exceeded its per-stage wall-time budget
/// (ServeConfig::stage_timeout_ms). Counted as a failed attempt against
/// the retry budget; surfaces as RetryExhaustedError once that runs out.
class StageTimeoutError : public Error {
 public:
  using Error::Error;
};

/// A stage kept failing (injected fault, timeout, corrupt input) until the
/// bounded retry budget ran out. The message carries the stage name and
/// the final attempt's error.
class RetryExhaustedError : public Error {
 public:
  using Error::Error;
};

/// The server is stopped (or stopping) and can no longer accept work.
class ServerStoppedError : public Error {
 public:
  using Error::Error;
};

}  // namespace trkx::serve

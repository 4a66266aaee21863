#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace trkx {

/// Exception thrown on any violated precondition or internal invariant.
/// Recoverable library failures derive from this so callers can select
/// how much to catch: a supervisor loop catches trkx::Error, a retry
/// loop catches IoError, a DDP trainer catches CommTimeoutError.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  /// Out of line (error.cpp), as is throw_check_failure: an inline copy
  /// would be emitted in every translation unit that throws, the ISA
  /// kernel units included, and the linker may keep any one of them.
  ~Error() override;
};

/// File/stream failure (open, truncated read, short write). Messages carry
/// path + byte offset so quarantine logs identify the corrupt file.
class IoError : public Error {
 public:
  using Error::Error;
};

/// Checkpoint file is missing, corrupt (CRC/magic), or from an
/// incompatible version/run configuration.
class CheckpointError : public Error {
 public:
  using Error::Error;
};

/// Collective-communication failure.
class CommError : public Error {
 public:
  using Error::Error;
};

/// A collective did not complete within the configured timeout (a peer
/// rank died or hung). Raised on every *surviving* rank so they all
/// unwind instead of deadlocking in the barrier.
class CommTimeoutError : public CommError {
 public:
  using CommError::CommError;
};

/// Thrown by an armed `rank-kill` fault site: simulates a rank dying
/// mid-collective. Deliberately NOT a CommError — survivors see
/// CommTimeoutError; only the killed rank sees this.
class RankKilledError : public Error {
 public:
  using Error::Error;
};

/// Thrown by an armed `error`-kind fault site (deterministic chaos
/// injection; see util/fault.hpp).
class FaultInjectedError : public Error {
 public:
  explicit FaultInjectedError(const std::string& what) : Error(what) {}
};

namespace detail {
/// Throw the Error a failed TRKX_CHECK (no message) or TRKX_CHECK_MSG
/// reports. TRKX_CHECK builds no std::string at its call site.
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line);
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
}  // namespace detail

}  // namespace trkx

/// Precondition / invariant check that throws trkx::Error on failure.
/// Always enabled (not compiled out in release builds): the cost is trivial
/// next to the kernels it guards, and silent corruption is far worse.
#define TRKX_CHECK(expr)                                                   \
  do {                                                                     \
    if (!(expr))                                                           \
      ::trkx::detail::throw_check_failure(#expr, __FILE__, __LINE__);     \
  } while (0)

#define TRKX_CHECK_MSG(expr, msg)                                         \
  do {                                                                    \
    if (!(expr)) {                                                        \
      std::ostringstream trkx_os_;                                        \
      trkx_os_ << msg;                                                    \
      ::trkx::detail::throw_check_failure(#expr, __FILE__, __LINE__,      \
                                          trkx_os_.str());                \
    }                                                                     \
  } while (0)

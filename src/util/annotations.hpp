#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

/// Clang Thread Safety Analysis attribute wrappers (no-ops elsewhere).
///
/// Shared-state classes declare which mutex protects which member
/// (TRKX_GUARDED_BY) and which functions expect a lock to be held
/// (TRKX_REQUIRES); a Clang build then proves at compile time that every
/// access happens under the right lock. The repo's concurrency claims —
/// lock-free sharded metrics, the prefetch producer/consumer, buffers
/// migrating between threads — are exactly where such proofs pay
/// off, so `-Wthread-safety -Werror=thread-safety` is enabled for every
/// Clang build (see the top-level CMakeLists.txt). GCC compiles the
/// attributes away; the sanitizer matrix (TRKX_SANITIZE) covers the
/// dynamic side there.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define TRKX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TRKX_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability ("mutex" names the kind).
#define TRKX_CAPABILITY(x) TRKX_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires in its ctor and releases in its dtor.
#define TRKX_SCOPED_CAPABILITY TRKX_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be read/written while holding the named mutex.
#define TRKX_GUARDED_BY(x) TRKX_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the pointee (not the pointer) is lock-protected.
#define TRKX_PT_GUARDED_BY(x) TRKX_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and exit).
#define TRKX_REQUIRES(...) \
  TRKX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (held on exit, not on entry).
#define TRKX_ACQUIRE(...) \
  TRKX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define TRKX_RELEASE(...) \
  TRKX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define TRKX_TRY_ACQUIRE(...) \
  TRKX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define TRKX_EXCLUDES(...) TRKX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define TRKX_RETURN_CAPABILITY(x) TRKX_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model (use sparingly, with a
/// comment saying why).
#define TRKX_NO_THREAD_SAFETY_ANALYSIS \
  TRKX_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Marks an inference-stage entry point whose transitive call closure must
/// stay free of heap allocation and of blocking operations. Expands to
/// nothing — it is a marker for trkx-analyze's hot-path pass, which walks
/// the call graph from every annotated function and reports
/// trkx-hot-alloc / trkx-hot-block violations. Annotate declarations, not
/// call sites.
#define TRKX_HOT

namespace trkx {

/// std::mutex wrapped as an annotated capability. Use with LockGuard /
/// UniqueLock below so Clang tracks acquire/release pairs; members it
/// protects carry TRKX_GUARDED_BY(that_mutex_).
class TRKX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TRKX_ACQUIRE() { m_.lock(); }
  void unlock() TRKX_RELEASE() { m_.unlock(); }
  bool try_lock() TRKX_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for interop with std wait primitives. Only
  /// UniqueLock (below) should need this.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Annotated drop-in for std::lock_guard<std::mutex> over trkx::Mutex.
class TRKX_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) TRKX_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() TRKX_RELEASE() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// Annotated std::unique_lock for condition-variable waits. The analysis
/// treats the capability as held for the whole scope; CondVar::wait
/// reacquires before returning, so that model is sound.
class TRKX_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) TRKX_ACQUIRE(m) : lock_(m.native()) {}
  ~UniqueLock() TRKX_RELEASE() {}
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with trkx::Mutex via UniqueLock.
class CondVar {
 public:
  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }
  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) {
    cv_.wait(lock.native(), std::move(pred));
  }
  /// Timed wait against a steady_clock deadline; std::cv_status::timeout
  /// when the deadline passed. The timeout-aware dist barrier uses this to
  /// detect dead/hung ranks instead of blocking forever.
  std::cv_status wait_until(
      UniqueLock& lock,
      std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.native(), deadline);
  }
  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          std::chrono::duration<Rep, Period> timeout) {
    return cv_.wait_for(lock.native(), timeout);
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace trkx

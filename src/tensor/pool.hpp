#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trkx {

/// Size-bucketed recycling pool for dense tensor buffers.
///
/// Every Matrix allocation in the library goes through this pool (via
/// PoolAllocator below), so the autograd tape's per-op Matrix churn —
/// which dominates small-hidden-dim training steps — turns into
/// thread-local free-list pushes and pops instead of malloc/free pairs.
///
/// Design:
///   - Requests are rounded up to power-of-two buckets (min 256 bytes);
///     release() returns the block to the *releasing* thread's free list,
///     so buffers produced on a prefetch thread and freed on the trainer
///     thread simply migrate between caches without synchronisation.
///   - Each thread caches at most 128 MB; beyond that, releases fall
///     through to the system allocator. Requests above the largest
///     bucket (64 MB) bypass the pool entirely.
///   - The pool is enabled by default; set TRKX_TENSOR_POOL=0 (or call
///     set_enabled(false)) to fall back to plain new/delete everywhere —
///     useful for allocator-sensitive debugging (ASan still sees every
///     block either way; cached blocks are merely reused, never shrunk).
///
/// Stats are kept per thread with uncontended relaxed atomics and merged
/// on read; training loops publish them as pool.* gauges each epoch.
class TensorPool {
 public:
  /// A buffer of at least `bytes` (bucket-rounded). Never returns null
  /// for bytes > 0; acquire(0) returns null.
  static void* acquire(std::size_t bytes);
  /// Return a buffer obtained from acquire() with the same `bytes`.
  static void release(void* p, std::size_t bytes);

  static bool enabled();
  static void set_enabled(bool on);

  /// Aggregated over all threads (live caches plus retired threads).
  struct Stats {
    std::uint64_t hits = 0;        ///< acquires served from a free list
    std::uint64_t misses = 0;      ///< acquires that hit the system allocator
    std::uint64_t returns = 0;     ///< releases cached for reuse
    std::uint64_t evictions = 0;   ///< releases freed (cache full / bypass)
    std::uint64_t bytes_cached = 0;  ///< currently sitting in free lists
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };
  static Stats stats();
  /// Zero the hit/miss/return/eviction counters (cached bytes stay).
  static void reset_stats();

  /// Free every block cached by the calling thread.
  static void clear_thread_cache();
};

/// Minimal stateless allocator routing std::vector storage through
/// TensorPool. All instances compare equal, so containers with this
/// allocator swap/move freely.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(TensorPool::acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    TensorPool::release(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const {
    return false;
  }
};

/// The storage type behind Matrix: a float vector recycled through the
/// pool across autograd tape steps.
using PooledFloatBuffer = std::vector<float, PoolAllocator<float>>;

}  // namespace trkx

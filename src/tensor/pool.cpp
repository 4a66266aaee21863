#include "tensor/pool.hpp"

#include <atomic>
#include <cstdint>
#include <new>
#include <vector>

#include "util/annotations.hpp"
#include "util/env.hpp"

// ASan manual poisoning: blocks parked on a free list are poisoned so a
// use-after-release through the pool faults immediately instead of being
// masked by recycling; acquire() unpoisons before handing the block out.
// This is the TRKX_SANITIZE=address interlock — the pool stays enabled
// under ASan and stays bug-detecting.
#if defined(__SANITIZE_ADDRESS__)
#define TRKX_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TRKX_POOL_ASAN 1
#endif
#endif
#ifndef TRKX_POOL_ASAN
#define TRKX_POOL_ASAN 0
#endif
#if TRKX_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace trkx {
namespace {

// Power-of-two buckets from 256 B to 64 MB. Anything larger bypasses the
// pool (a single full-graph activation matrix, say) — those allocations
// are rare enough that malloc is not the bottleneck.
constexpr std::size_t kMinBucketBytes = 256;
constexpr std::size_t kMaxBucketBytes = std::size_t{1} << 26;
constexpr std::size_t kNumBuckets = 19;  // 2^8 .. 2^26
// Per-thread free-list cap; releases beyond it go to the system allocator.
constexpr std::size_t kMaxCachedBytes = std::size_t{128} << 20;

/// Bucket index for a request, or kNumBuckets when it bypasses the pool.
std::size_t bucket_index(std::size_t bytes) {
  if (bytes > kMaxBucketBytes) return kNumBuckets;
  std::size_t idx = 0;
  std::size_t cap = kMinBucketBytes;
  while (cap < bytes) {
    cap <<= 1;
    ++idx;
  }
  return idx;
}

std::size_t bucket_bytes(std::size_t idx) { return kMinBucketBytes << idx; }

struct ThreadCache;

void poison_block(void* p, std::size_t bytes) {
#if TRKX_POOL_ASAN
  __asan_poison_memory_region(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void unpoison_block(void* p, std::size_t bytes) {
#if TRKX_POOL_ASAN
  __asan_unpoison_memory_region(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Leaked process-wide registry of live thread caches plus the folded
/// counters of exited threads; stats() merges both. Leaked on purpose so
/// thread-exit destructors can always reach it.
struct Registry {
  Mutex mutex;
  std::vector<ThreadCache*> caches TRKX_GUARDED_BY(mutex);
  TensorPool::Stats retired TRKX_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry;  // NOLINT(trkx-naked-new): leaked singleton
  return *r;
}

bool read_enabled() { return env::get_bool("TRKX_TENSOR_POOL"); }

std::atomic<bool> g_enabled{read_enabled()};

// Set by ~ThreadCache. On the main thread every thread_local is destroyed
// before objects with static storage duration, so a static-lifetime Matrix
// freed during program teardown would otherwise push into the dead cache's
// free lists (use-after-free). The flag itself is trivially destructible
// and zero-initialized, so it stays readable through thread exit.
thread_local bool t_cache_dead = false;

struct ThreadCache {
  std::vector<void*> free_lists[kNumBuckets];
  std::size_t bytes_cached = 0;
  // Owner-written, cross-thread-read (stats aggregation): relaxed atomics.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> returns{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> bytes_cached_pub{0};

  ThreadCache() {
    Registry& r = registry();
    LockGuard lock(r.mutex);
    r.caches.push_back(this);
  }

  ~ThreadCache() {
    drop_blocks();
    Registry& r = registry();
    LockGuard lock(r.mutex);
    r.retired.hits += hits.load(std::memory_order_relaxed);
    r.retired.misses += misses.load(std::memory_order_relaxed);
    r.retired.returns += returns.load(std::memory_order_relaxed);
    r.retired.evictions += evictions.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < r.caches.size(); ++i) {
      if (r.caches[i] == this) {
        r.caches.erase(r.caches.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    t_cache_dead = true;
  }

  void drop_blocks() {
    for (std::size_t idx = 0; idx < kNumBuckets; ++idx) {
      for (void* p : free_lists[idx]) {
        // Cached blocks are poisoned; unpoison before returning them to
        // the system allocator so ASan's free() hook sees clean memory.
        unpoison_block(p, bucket_bytes(idx));
        ::operator delete(p);
      }
      free_lists[idx].clear();
    }
    bytes_cached = 0;
    bytes_cached_pub.store(0, std::memory_order_relaxed);
  }
};

// Null once the thread's cache has been destroyed: callers must then
// bypass the pool and talk to the system allocator directly.
ThreadCache* local_cache() {
  if (t_cache_dead) return nullptr;
  thread_local ThreadCache cache;
  return &cache;
}

}  // namespace

void* TensorPool::acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t idx = bucket_index(bytes);
  // Always allocate bucket-rounded sizes so a block's real capacity is a
  // pure function of the request size, regardless of when the pool was
  // enabled — release() can then cache any block safely.
  const std::size_t alloc_bytes =
      idx < kNumBuckets ? bucket_bytes(idx) : bytes;
  ThreadCache* cache = local_cache();
  if (cache == nullptr) return ::operator new(alloc_bytes);
  if (idx < kNumBuckets && g_enabled.load(std::memory_order_relaxed)) {
    auto& list = cache->free_lists[idx];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      unpoison_block(p, alloc_bytes);
      cache->bytes_cached -= alloc_bytes;
      cache->bytes_cached_pub.store(cache->bytes_cached,
                                    std::memory_order_relaxed);
      cache->hits.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  cache->misses.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(alloc_bytes);
}

void TensorPool::release(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  const std::size_t idx = bucket_index(bytes);
  ThreadCache* cache = local_cache();
  if (cache == nullptr) {
    ::operator delete(p);
    return;
  }
  if (idx < kNumBuckets && g_enabled.load(std::memory_order_relaxed)) {
    const std::size_t cap = bucket_bytes(idx);
    if (cache->bytes_cached + cap <= kMaxCachedBytes) {
      cache->free_lists[idx].push_back(p);
      poison_block(p, cap);
      cache->bytes_cached += cap;
      cache->bytes_cached_pub.store(cache->bytes_cached,
                                    std::memory_order_relaxed);
      cache->returns.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  cache->evictions.fetch_add(1, std::memory_order_relaxed);
  ::operator delete(p);
}

bool TensorPool::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void TensorPool::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

TensorPool::Stats TensorPool::stats() {
  Registry& r = registry();
  LockGuard lock(r.mutex);
  Stats s = r.retired;
  for (const ThreadCache* c : r.caches) {
    s.hits += c->hits.load(std::memory_order_relaxed);
    s.misses += c->misses.load(std::memory_order_relaxed);
    s.returns += c->returns.load(std::memory_order_relaxed);
    s.evictions += c->evictions.load(std::memory_order_relaxed);
    s.bytes_cached += c->bytes_cached_pub.load(std::memory_order_relaxed);
  }
  return s;
}

void TensorPool::reset_stats() {
  Registry& r = registry();
  LockGuard lock(r.mutex);
  r.retired = Stats{};
  for (ThreadCache* c : r.caches) {
    c->hits.store(0, std::memory_order_relaxed);
    c->misses.store(0, std::memory_order_relaxed);
    c->returns.store(0, std::memory_order_relaxed);
    c->evictions.store(0, std::memory_order_relaxed);
  }
}

void TensorPool::clear_thread_cache() {
  if (ThreadCache* cache = local_cache()) cache->drop_blocks();
}

}  // namespace trkx

#include "tensor/kernels/kernels.hpp"

#include <atomic>

#include "util/env.hpp"
#include "util/error.hpp"

namespace trkx {
namespace kernels {

namespace {

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<int> g_mode{static_cast<int>(SimdMode::kAuto)};

SimdMode mode_from_env() {
  const std::string mode = env::get_string("TRKX_SIMD");
  if (mode == "auto") return SimdMode::kAuto;
  if (mode == "scalar") return SimdMode::kScalar;
  if (mode == "avx2") return SimdMode::kAvx2;
  TRKX_CHECK_MSG(false, "TRKX_SIMD must be auto, avx2 or scalar; got '"
                            << mode << "'");
  return SimdMode::kAuto;
}

const KernelTable& resolve(SimdMode m) {
  switch (m) {
    case SimdMode::kScalar:
      return scalar_table();
    case SimdMode::kAvx2:
      TRKX_CHECK_MSG(host_has_avx2(),
                     "TRKX_SIMD=avx2 requested but this host lacks AVX2+FMA");
      return avx2_table();
    case SimdMode::kAvx512:
      TRKX_CHECK_MSG(host_has_avx512(),
                     "SimdMode::kAvx512 set but this host lacks AVX-512F");
      return avx512_table();
    case SimdMode::kAuto:
    default:
      if (host_has_avx512()) return avx512_table();
      return host_has_avx2() ? avx2_table() : scalar_table();
  }
}

}  // namespace

// kernels_avx512.cpp: the avx512 table's GEMM entries.
extern const GemmFn kAvx512Gemm, kAvx512GemmNt, kAvx512GemmTn;

const KernelTable& avx512_table() {
  static const KernelTable t = [] {
    KernelTable zmm = avx2_table();
    zmm.name = "avx512";
    zmm.gemm = kAvx512Gemm;
    zmm.gemm_nt = kAvx512GemmNt;
    zmm.gemm_tn = kAvx512GemmTn;
    return zmm;
  }();
  return t;
}

bool host_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool host_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return host_has_avx2() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

const KernelTable& active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // First call resolves env + cpuid. A concurrent first call resolves
    // to the same table, so the racing stores are idempotent.
    const SimdMode m = mode_from_env();
    g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
    t = &resolve(m);
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

SimdMode mode() {
  active();
  return static_cast<SimdMode>(g_mode.load(std::memory_order_relaxed));
}

void set_mode(SimdMode m) {
  const KernelTable& t = resolve(m);  // validate before publishing
  g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
  g_active.store(&t, std::memory_order_release);
}

}  // namespace kernels
}  // namespace trkx

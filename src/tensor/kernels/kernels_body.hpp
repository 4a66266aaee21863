#pragma once

// Shared kernel bodies, compiled once per ISA. Each translation unit
// defines the parameter macros before including this header:
//
//   TRKX_KERNELS_NS    namespace for this ISA's symbols (scalar_impl, ...)
//   TRKX_KERNELS_AVX2  1 to emit AVX2+FMA intrinsic paths, 0 for scalar
//   TRKX_KERNELS_NAME  display name stored in the KernelTable
//
// The AVX2 TU is compiled with -mavx2 -mfma -ffp-contract=off: FMA enters
// only through explicit _mm256_fmadd_ps, so the scalar tail loops and the
// kernels documented as bit-identical (see kernels.hpp) never get
// auto-contracted away from the scalar reference's mul-then-add rounding.
// The AVX-512 TU (kernels_avx512.cpp) includes the AVX2 bodies too and
// instantiates the GEMM entry points with its own register tile.
//
// The scalar bodies reproduce the historical loops from ops.cpp /
// tape.cpp / optimizer.cpp token for token (loop order, k-tiling,
// zero-skips, accumulator widths), so dispatching to the scalar table is
// numerically invisible.

#ifndef TRKX_KERNELS_NS
// Standalone-header compilation (trkx-analyze --check-headers) only; real TUs
// always define the macros first.
#define TRKX_KERNELS_NS standalone_impl
#define TRKX_KERNELS_AVX2 0
#define TRKX_KERNELS_NAME "standalone"
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernels.hpp"
#include "util/error.hpp"

#if TRKX_KERNELS_AVX2
#include <immintrin.h>
#endif

namespace trkx {
namespace kernels {
namespace TRKX_KERNELS_NS {

/// Per-task elementwise chunk: large enough to amortise OpenMP dispatch,
/// small enough to split pipeline-sized vectors across cores.
constexpr std::size_t kEwBlock = 8192;

#if TRKX_KERNELS_AVX2
/// Horizontal sum of one 8-lane register (reassociated: ULP territory).
inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_movehdup_ps(lo);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

/// e^x for x in [0, 88] (Cephes expf): x = n·ln2 + r with ln2 split in
/// two so r is exact, e^r by a degree-7 polynomial, then the exponent
/// bits of 2^n. The range keeps 2^n a normal float.
inline __m256 exp8(__m256 x) {
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

/// 8-lane tanhf (Cephes): with a = |x|, a + a·z·P(z) (z = a²) below
/// a = 0.625, else 1 − 2/(e^{2a} + 1), then the sign of x restored. 2a is
/// clamped to 88, where the result is already 1. Working on |x| keeps
/// tanh(−0) = −0; NaN lanes pass through unchanged.
inline __m256 tanh8(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 a = _mm256_andnot_ps(sign, x);
  const __m256 z = _mm256_mul_ps(a, a);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), a, a);
  const __m256 e =
      exp8(_mm256_min_ps(_mm256_add_ps(a, a), _mm256_set1_ps(88.0f)));
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  const __m256 is_small =
      _mm256_cmp_ps(a, _mm256_set1_ps(0.625f), _CMP_LT_OQ);
  const __m256 r = _mm256_or_ps(_mm256_blendv_ps(large, small, is_small),
                                _mm256_and_ps(x, sign));
  return _mm256_blendv_ps(r, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}
#endif

// ---------------------------------------------------------------------
// Row primitives. Each has one AVX2 and one scalar body; OpenMP lives in
// the kernel wrappers below, never here.
// ---------------------------------------------------------------------

/// c[0..n) += a * b[0..n). FMA in the AVX2 lanes (GEMM/SpMM family is
/// ULP-bounded, not bit-identical); the tail is plain mul-then-add.
/// x86 returns an add's first NaN operand, and the compiler orders the
/// operands as it likes, so the tail keeps the product's NaN explicitly,
/// as the avx512 tile's tail lanes do.
inline void mac_row(float* c, const float* b, float a, std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 va = _mm256_set1_ps(a);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256 c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + j),
                                      _mm256_loadu_ps(c + j));
    const __m256 c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + j + 8),
                                      _mm256_loadu_ps(c + j + 8));
    _mm256_storeu_ps(c + j, c0);
    _mm256_storeu_ps(c + j + 8, c1);
  }
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(c + j, _mm256_fmadd_ps(va, _mm256_loadu_ps(b + j),
                                            _mm256_loadu_ps(c + j)));
  }
  for (; j < n; ++j) {
    const float p = a * b[j];
    c[j] = std::isnan(p) ? p : c[j] + p;
  }
#else
  for (std::size_t j = 0; j < n; ++j) c[j] += a * b[j];
#endif
}

/// Dot product of two contiguous rows (reassociated in the AVX2 build).
inline float dot_row(const float* a, const float* b, std::size_t n) {
#if TRKX_KERNELS_AVX2
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
  }
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
  }
  float acc = hsum8(_mm256_add_ps(acc0, acc1));
  for (; j < n; ++j) acc += a[j] * b[j];
  return acc;
#else
  float acc = 0.0f;
  for (std::size_t j = 0; j < n; ++j) acc += a[j] * b[j];
  return acc;
#endif
}

/// Sum of one row (reassociated in the AVX2 build).
inline float sum_row(const float* a, std::size_t n) {
#if TRKX_KERNELS_AVX2
  __m256 acc8 = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc8 = _mm256_add_ps(acc8, _mm256_loadu_ps(a + j));
  }
  float acc = hsum8(acc8);
  for (; j < n; ++j) acc += a[j];
  return acc;
#else
  float acc = 0.0f;
  for (std::size_t j = 0; j < n; ++j) acc += a[j];
  return acc;
#endif
}

/// Sum of (a[j] - m)^2 over one row (reassociated in the AVX2 build).
inline float sum_sq_diff(const float* a, float m, std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 vm = _mm256_set1_ps(m);
  __m256 acc8 = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + j), vm);
    acc8 = _mm256_fmadd_ps(d, d, acc8);
  }
  float acc = hsum8(acc8);
  for (; j < n; ++j) acc += (a[j] - m) * (a[j] - m);
  return acc;
#else
  float acc = 0.0f;
  for (std::size_t j = 0; j < n; ++j) acc += (a[j] - m) * (a[j] - m);
  return acc;
#endif
}

/// o = a + b (elementwise, exact: identical rounding on both ISAs).
inline void vadd(const float* a, const float* b, float* o, std::size_t n) {
#if TRKX_KERNELS_AVX2
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_add_ps(_mm256_loadu_ps(a + j),
                                          _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) o[j] = a[j] + b[j];
#else
  for (std::size_t j = 0; j < n; ++j) o[j] = a[j] + b[j];
#endif
}

/// o = a - b (exact).
inline void vsub(const float* a, const float* b, float* o, std::size_t n) {
#if TRKX_KERNELS_AVX2
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_sub_ps(_mm256_loadu_ps(a + j),
                                          _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) o[j] = a[j] - b[j];
#else
  for (std::size_t j = 0; j < n; ++j) o[j] = a[j] - b[j];
#endif
}

/// o = a * b (exact).
inline void vmul(const float* a, const float* b, float* o, std::size_t n) {
#if TRKX_KERNELS_AVX2
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_mul_ps(_mm256_loadu_ps(a + j),
                                          _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) o[j] = a[j] * b[j];
#else
  for (std::size_t j = 0; j < n; ++j) o[j] = a[j] * b[j];
#endif
}

/// o = a * s (exact).
inline void vscale(const float* a, float s, float* o, std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_mul_ps(_mm256_loadu_ps(a + j), vs));
  }
  for (; j < n; ++j) o[j] = a[j] * s;
#else
  for (std::size_t j = 0; j < n; ++j) o[j] = a[j] * s;
#endif
}

/// a += b (exact).
inline void vadd_inplace(float* a, const float* b, std::size_t n) {
#if TRKX_KERNELS_AVX2
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(a + j, _mm256_add_ps(_mm256_loadu_ps(a + j),
                                          _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) a[j] += b[j];
#else
  for (std::size_t j = 0; j < n; ++j) a[j] += b[j];
#endif
}

/// o = a * g + b (exact: mul then add, no FMA — the layer-norm affine).
inline void vmuladd3(const float* a, const float* g, const float* b, float* o,
                     std::size_t n) {
#if TRKX_KERNELS_AVX2
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + j),
                                      _mm256_loadu_ps(g + j));
    _mm256_storeu_ps(o + j, _mm256_add_ps(prod, _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) o[j] = a[j] * g[j] + b[j];
#else
  for (std::size_t j = 0; j < n; ++j) o[j] = a[j] * g[j] + b[j];
#endif
}

/// o = (a - m) * s (exact — the layer-norm normalisation).
inline void vsubmul(const float* a, float m, float s, float* o,
                    std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 vm = _mm256_set1_ps(m);
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(
        o + j, _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(a + j), vm), vs));
  }
  for (; j < n; ++j) o[j] = (a[j] - m) * s;
#else
  for (std::size_t j = 0; j < n; ++j) o[j] = (a[j] - m) * s;
#endif
}

/// y = x > 0 ? x : 0 (exact: maxps returns its second operand, +0, for
/// NaN and ±0 inputs, as the scalar compare does).
inline void vrelu(const float* x, float* y, std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_max_ps(_mm256_loadu_ps(x + j), zero));
  }
  for (; j < n; ++j) y[j] = x[j] > 0.0f ? x[j] : 0.0f;
#else
  for (std::size_t j = 0; j < n; ++j) y[j] = x[j] > 0.0f ? x[j] : 0.0f;
#endif
}

/// dx = x > 0 ? g : 0 (exact: an ordered compare masks g).
inline void vrelu_bwd(const float* g, const float* x, float* dx,
                      std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 pos =
        _mm256_cmp_ps(_mm256_loadu_ps(x + j), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(dx + j, _mm256_and_ps(pos, _mm256_loadu_ps(g + j)));
  }
  for (; j < n; ++j) dx[j] = x[j] > 0.0f ? g[j] : 0.0f;
#else
  for (std::size_t j = 0; j < n; ++j) dx[j] = x[j] > 0.0f ? g[j] : 0.0f;
#endif
}

/// y = tanh(x): std::tanh in the scalar build, tanh8 in the AVX2 one. The
/// tail goes through tanh8 as well, so an element's result does not
/// depend on its position.
inline void vtanh(const float* x, float* y, std::size_t n) {
#if TRKX_KERNELS_AVX2
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j, tanh8(_mm256_loadu_ps(x + j)));
  }
  if (j < n) {
    float buf[8] = {};
    std::memcpy(buf, x + j, (n - j) * sizeof(float));
    _mm256_storeu_ps(buf, tanh8(_mm256_loadu_ps(buf)));
    std::memcpy(y + j, buf, (n - j) * sizeof(float));
  }
#else
  for (std::size_t j = 0; j < n; ++j) y[j] = std::tanh(x[j]);
#endif
}

/// dx = g * (1 - y*y) (exact: mul, sub, mul — no FMA).
inline void vtanh_bwd(const float* g, const float* y, float* dx,
                      std::size_t n) {
#if TRKX_KERNELS_AVX2
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 yv = _mm256_loadu_ps(y + j);
    _mm256_storeu_ps(dx + j,
                     _mm256_mul_ps(_mm256_loadu_ps(g + j),
                                   _mm256_sub_ps(one, _mm256_mul_ps(yv, yv))));
  }
  for (; j < n; ++j) dx[j] = g[j] * (1.0f - y[j] * y[j]);
#else
  for (std::size_t j = 0; j < n; ++j) dx[j] = g[j] * (1.0f - y[j] * y[j]);
#endif
}

/// One layer-norm backward row: dx = is * (dy*g - inv_cols*sum(dy*g)
/// - xhat * inv_cols * sum(dy*g*xhat)), matching the historical scalar
/// expression's association exactly in the tails.
inline void lnorm_bwd_row(const float* dyr, const float* g, const float* xh,
                          float is, float inv_cols, float* dxr,
                          std::size_t n) {
#if TRKX_KERNELS_AVX2
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 dyg = _mm256_mul_ps(_mm256_loadu_ps(dyr + j),
                                     _mm256_loadu_ps(g + j));
    acc1 = _mm256_add_ps(acc1, dyg);
    acc2 = _mm256_fmadd_ps(dyg, _mm256_loadu_ps(xh + j), acc2);
  }
  float sum_dyg = hsum8(acc1);
  float sum_dyg_xhat = hsum8(acc2);
  for (; j < n; ++j) {
    const float dyg = dyr[j] * g[j];
    sum_dyg += dyg;
    sum_dyg_xhat += dyg * xh[j];
  }
  const float b = inv_cols * sum_dyg;
  const __m256 vb = _mm256_set1_ps(b);
  const __m256 vic = _mm256_set1_ps(inv_cols);
  const __m256 vs2 = _mm256_set1_ps(sum_dyg_xhat);
  const __m256 vis = _mm256_set1_ps(is);
  for (j = 0; j + 8 <= n; j += 8) {
    const __m256 dyg = _mm256_mul_ps(_mm256_loadu_ps(dyr + j),
                                     _mm256_loadu_ps(g + j));
    const __m256 c =
        _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(xh + j), vic), vs2);
    _mm256_storeu_ps(
        dxr + j,
        _mm256_mul_ps(_mm256_sub_ps(_mm256_sub_ps(dyg, vb), c), vis));
  }
  for (; j < n; ++j) {
    const float dyg = dyr[j] * g[j];
    dxr[j] = is * (dyg - b - xh[j] * inv_cols * sum_dyg_xhat);
  }
#else
  float sum_dyg = 0.0f, sum_dyg_xhat = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    const float dyg = dyr[j] * g[j];
    sum_dyg += dyg;
    sum_dyg_xhat += dyg * xh[j];
  }
  for (std::size_t j = 0; j < n; ++j) {
    const float dyg = dyr[j] * g[j];
    dxr[j] = is * (dyg - inv_cols * sum_dyg -
                   xh[j] * inv_cols * sum_dyg_xhat);
  }
#endif
}

/// Rows per block of the layer-norm parameter gradients: about 16 KB of z
/// and of dy, so a block stays in L1 while its column strips run over it.
constexpr std::size_t kLnBlockFloats = 4096;

#if TRKX_KERNELS_AVX2
/// dg[0..8V) += Σ dy[i, ·]·x̂[i, ·] and db[0..8V) += Σ dy[i, ·] over rows
/// [i0, i1) in row order (row stride cols), x̂ recomputed per element: V
/// 8-lane strips side by side, their 2V sums in registers.
template <std::size_t V>
void lnorm_param_strip(const float* dy, const float* z, std::size_t cols,
                       const float* mean, const float* inv_std,
                       std::size_t i0, std::size_t i1, float* dg, float* db) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 g[V], b[V];
#pragma GCC unroll 2
  for (std::size_t v = 0; v < V; ++v) {
    g[v] = _mm256_loadu_ps(dg + 8 * v);
    b[v] = _mm256_loadu_ps(db + 8 * v);
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const __m256 vm = _mm256_set1_ps(mean[i]);
    const __m256 vs = _mm256_set1_ps(inv_std[i]);
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      const __m256 d = _mm256_loadu_ps(dy + i * cols + 8 * v);
      const __m256 a =
          _mm256_max_ps(_mm256_loadu_ps(z + i * cols + 8 * v), zero);
      const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(a, vm), vs);
      g[v] = _mm256_add_ps(g[v], _mm256_mul_ps(d, xh));
      b[v] = _mm256_add_ps(b[v], d);
    }
  }
#pragma GCC unroll 2
  for (std::size_t v = 0; v < V; ++v) {
    _mm256_storeu_ps(dg + 8 * v, g[v]);
    _mm256_storeu_ps(db + 8 * v, b[v]);
  }
}
#endif

/// The layer-norm parameter gradients of a rows×cols block: dg[j] =
/// Σ_i dy[i,j]·x̂[i,j] and db[j] = Σ_i dy[i,j], each summed in row order
/// from +0, with x̂ = (relu(z) − mean[i])·inv_std[i] recomputed per
/// element. Every step is one exact op in the order of vrelu, vsubmul,
/// vmul and vadd_inplace, so the sums are the bytes of
/// colwise_sum(hadamard(dy, x̂)) and colwise_sum(dy) on every table. Rows
/// go in blocks of about kLnBlockFloats; per block the AVX2 body runs
/// 16- then 8-column strips with their sums in registers, and its last
/// cols % 8 columns and the scalar body go one column at a time. A sum
/// waits in dg/db between blocks, which is exact.
inline void lnorm_param_grads(const float* dy, const float* z,
                              const float* mean, const float* inv_std,
                              std::size_t rows, std::size_t cols, float* dg,
                              float* db) {
  if (cols == 0) return;
  std::fill(dg, dg + cols, 0.0f);
  std::fill(db, db + cols, 0.0f);
  const std::size_t block = std::max<std::size_t>(1, kLnBlockFloats / cols);
  for (std::size_t i0 = 0; i0 < rows; i0 += block) {
    const std::size_t i1 = std::min(rows, i0 + block);
    std::size_t j = 0;
#if TRKX_KERNELS_AVX2
    for (; j + 16 <= cols; j += 16)
      lnorm_param_strip<2>(dy + j, z + j, cols, mean, inv_std, i0, i1,
                           dg + j, db + j);
    for (; j + 8 <= cols; j += 8)
      lnorm_param_strip<1>(dy + j, z + j, cols, mean, inv_std, i0, i1,
                           dg + j, db + j);
#endif
    for (; j < cols; ++j) {
      float g = dg[j];
      float b = db[j];
      for (std::size_t i = i0; i < i1; ++i) {
        const float zi = z[i * cols + j];
        const float xh = ((zi > 0.0f ? zi : 0.0f) - mean[i]) * inv_std[i];
        g += dy[i * cols + j] * xh;
        b += dy[i * cols + j];
      }
      dg[j] = g;
      db[j] = b;
    }
  }
}

/// One Adam block. Every operation is elementwise and correctly rounded
/// (mul/add/sqrt/div), applied in the exact order of the historical
/// scalar loop — so the AVX2 path is bit-identical to scalar and the
/// optimizer-state checkpoints stay bit-exact across dispatch modes.
inline void adam_block(float* w, const float* g, float* m, float* v,
                       std::size_t n, float lr, float b1, float b2, float eps,
                       float wd, float ib1, float ib2) {
#if TRKX_KERNELS_AVX2
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vb1 = _mm256_set1_ps(b1);
  const __m256 vb2 = _mm256_set1_ps(b2);
  const __m256 vb1c = _mm256_set1_ps(1.0f - b1);
  const __m256 vb2c = _mm256_set1_ps(1.0f - b2);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vwd = _mm256_set1_ps(wd);
  const __m256 vib1 = _mm256_set1_ps(ib1);
  const __m256 vib2 = _mm256_set1_ps(ib2);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 vw = _mm256_loadu_ps(w + j);
    const __m256 vg = _mm256_loadu_ps(g + j);
    const __m256 grad = _mm256_add_ps(vg, _mm256_mul_ps(vwd, vw));
    const __m256 vm = _mm256_add_ps(_mm256_mul_ps(vb1, _mm256_loadu_ps(m + j)),
                                    _mm256_mul_ps(vb1c, grad));
    const __m256 vv = _mm256_add_ps(
        _mm256_mul_ps(vb2, _mm256_loadu_ps(v + j)),
        _mm256_mul_ps(_mm256_mul_ps(vb2c, grad), grad));
    _mm256_storeu_ps(m + j, vm);
    _mm256_storeu_ps(v + j, vv);
    const __m256 mhat = _mm256_mul_ps(vm, vib1);
    const __m256 vhat = _mm256_mul_ps(vv, vib2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
    vw = _mm256_sub_ps(vw, _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom));
    _mm256_storeu_ps(w + j, vw);
  }
  for (; j < n; ++j) {
    const float grad = g[j] + wd * w[j];
    m[j] = b1 * m[j] + (1.0f - b1) * grad;
    v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
    const float mhat = m[j] * ib1;
    const float vhat = v[j] * ib2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
#else
  for (std::size_t j = 0; j < n; ++j) {
    const float grad = g[j] + wd * w[j];
    m[j] = b1 * m[j] + (1.0f - b1) * grad;
    v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
    const float mhat = m[j] * ib1;
    const float vhat = v[j] * ib2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
#endif
}

// ---------------------------------------------------------------------
// KernelTable entry points: shape loops + OpenMP, primitives per row.
// ---------------------------------------------------------------------

#if TRKX_KERNELS_AVX2

// The three AVX2 GEMMs share one loop over k-blocks, column panels and
// row tiles (gemm_blocked) around a register tile of C: Avx2Tile's 6×16
// here, a 12×32 zmm tile in the avx512 table (kernels_avx512.cpp), which
// instantiates the same loop and GEMM entry points with its own tile. A
// tile keeps its block of C in accumulators while k runs, so C is loaded
// and stored once per k-block, and every output accumulates in k order
// with one FMA per step (no horizontal sums).

/// k-block: keeps a gemm_tn A panel (kKc rows of A) in L2 and sizes the
/// packed Bᵀ panel of gemm_nt (kKc × Tile::kNr floats on the stack).
constexpr std::size_t kKc = 256;

/// C[0..R)×[0..16) = (load_c ? C : 0) + A·B over kc steps, where
/// A(r, p) = a[r*rs + p*ks] and row p of B starts at b + p*ldb. The loops
/// over r must unroll, or the accumulators spill to the stack.
template <std::size_t R>
void gemm_tile(const float* a, std::size_t rs, std::size_t ks, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t kc,
               bool load_c) {
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < R; ++r) {
    acc0[r] = load_c ? _mm256_loadu_ps(c + r * ldc) : _mm256_setzero_ps();
    acc1[r] = load_c ? _mm256_loadu_ps(c + r * ldc + 8) : _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    const float* ap = a + p * ks;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 ar = _mm256_broadcast_ss(ap + r * rs);
      acc0[r] = _mm256_fmadd_ps(ar, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(ar, b1, acc1[r]);
    }
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
  }
}

/// The AVX2 register tile: kMr rows × kNr columns of C in 12 ymm
/// accumulators.
struct Avx2Tile {
  static constexpr std::size_t kMr = 6;
  static constexpr std::size_t kNr = 16;

  /// One tile of 1..kMr rows (only the last row tile of C is short) and
  /// 1..kNr columns: a full panel runs gemm_tile, a narrower one (only the
  /// last panel) goes through mac_row, so its columns past the last
  /// multiple of 8 accumulate mul-then-add.
  static void multiply(std::size_t rows, std::size_t nr, const float* a,
                       std::size_t rs, std::size_t ks, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t kc, bool load_c) {
    using TileFn = void (*)(const float*, std::size_t, std::size_t,
                            const float*, std::size_t, float*, std::size_t,
                            std::size_t, bool);
    static constexpr TileFn kTiles[kMr + 1] = {
        nullptr,       &gemm_tile<1>, &gemm_tile<2>, &gemm_tile<3>,
        &gemm_tile<4>, &gemm_tile<5>, &gemm_tile<6>};
    if (nr == kNr) {
      kTiles[rows](a, rs, ks, b, ldb, c, ldc, kc, load_c);
      return;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc;
      if (!load_c) std::fill(crow, crow + nr, 0.0f);
      for (std::size_t p = 0; p < kc; ++p)
        mac_row(crow, b + p * ldb, a[r * rs + p * ks], nr);
    }
  }
};

/// C (m×n) = A·B, or C += A·B when accumulate, with A(i, p) =
/// a[i*rs + p*ks] and B k×n row-major, or n×k (B is given transposed) when
/// b_t. Without accumulate the first k-block starts its tiles from zero;
/// every other k-block loads C. Every thread walks the same k-blocks and
/// Tile::kNr-column panels; a transposed panel is packed into the thread's
/// own stack buffer. Tile::multiply takes each (row tile, panel) pair,
/// the short last ones included.
template <class Tile>
void gemm_blocked(const float* a, std::size_t rs, std::size_t ks,
                  const float* b, bool b_t, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  static_assert(Tile::kMr > 0 && Tile::kNr > 0);
  if (k == 0) {  // no k-block runs: C = 0, or C += 0
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  const std::size_t tiles = (m + Tile::kMr - 1) / Tile::kMr;
  float panel[kKc * Tile::kNr];  // private: each thread packs its own Bᵀ
#pragma omp parallel default(none) shared(a, b, c) private(panel) \
    firstprivate(rs, ks, b_t, m, k, n, tiles, accumulate)
  {
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kc = std::min(std::size_t{kKc}, k - k0);
      const bool load_c = accumulate || k0 > 0;
      for (std::size_t j0 = 0; j0 < n; j0 += Tile::kNr) {
        const std::size_t nr = std::min(std::size_t{Tile::kNr}, n - j0);
        if (b_t) {
          for (std::size_t j = 0; j < nr; ++j)
            for (std::size_t p = 0; p < kc; ++p)
              panel[p * Tile::kNr + j] = b[(j0 + j) * k + k0 + p];
        }
        const float* bp = b_t ? panel : b + k0 * n + j0;
        const std::size_t ldb = b_t ? Tile::kNr : n;
        // A static schedule over an unchanged trip count hands each thread
        // the same row tiles in every k-block, so nowait is race-free.
#pragma omp for schedule(static) nowait
        for (std::size_t t = 0; t < tiles; ++t) {
          const std::size_t i0 = t * Tile::kMr;
          const std::size_t rows = std::min(std::size_t{Tile::kMr}, m - i0);
          Tile::multiply(rows, nr, a + i0 * rs + k0 * ks, rs, ks, bp, ldb,
                         c + i0 * n + j0, n, kc, load_c);
        }
      }
    }
  }
}

/// c[i] (+)= a(i, :) · b for a row-major m×k a (the n = 1 path of gemm
/// and gemm_nt: matrix · vector, e.g. the classifier head).
inline void gemv(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, bool accumulate) {
  if (accumulate && k == 0) return;  // C += 0 leaves -0 entries as they are
#pragma omp parallel for schedule(static) default(none) shared(a, b, c) \
    firstprivate(m, k, accumulate)
  for (std::size_t i = 0; i < m; ++i) {
    const float d = dot_row(a + i * k, b, k);
    c[i] = accumulate ? c[i] + d : d;
  }
}

// The GEMM entry points, over register tile `Tile` (this table's
// Avx2Tile by default). n = 1 never reaches a tile.

template <class Tile = Avx2Tile>
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate) {
  if (n == 1) return gemv(a, b, c, m, k, accumulate);
  gemm_blocked<Tile>(a, /*rs=*/k, /*ks=*/1, b, /*b_t=*/false, c, m, k, n,
                     accumulate);
}

template <class Tile = Avx2Tile>
void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
  if (n == 1) return gemv(a, b, c, m, k, accumulate);
  gemm_blocked<Tile>(a, /*rs=*/k, /*ks=*/1, b, /*b_t=*/true, c, m, k, n,
                     accumulate);
}

template <class Tile = Avx2Tile>
void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
  if (n == 1) {  // Aᵀ · vector (the classifier's weight gradient): axpys
#pragma omp parallel for schedule(static) default(none) shared(a, b, c) \
    firstprivate(m, k, accumulate)
    for (std::size_t i0 = 0; i0 < m; i0 += kEwBlock) {
      const std::size_t len = std::min(std::size_t{kEwBlock}, m - i0);
      if (!accumulate) std::fill(c + i0, c + i0 + len, 0.0f);
      for (std::size_t p = 0; p < k; ++p)
        mac_row(c + i0, a + p * m + i0, b[p], len);
    }
    return;
  }
  gemm_blocked<Tile>(a, /*rs=*/1, /*ks=*/m, b, /*b_t=*/false, c, m, k, n,
                     accumulate);
}

#else  // scalar reference: the historical loop nests

/// k-loop tile of the scalar gemm (one tile of B rows stays in L1).
constexpr std::size_t kTile = 64;

inline void gemm(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate) {
  // i-k-j order with k-tiling and zero-skip, as the historical matmul,
  // which accumulated into a zero-filled C.
#pragma omp parallel for schedule(static) default(none) shared(a, b, c) \
    firstprivate(m, k, n, accumulate)
  for (std::size_t i = 0; i < m; ++i) {
    if (!accumulate) std::fill(c + i * n, c + i * n + n, 0.0f);
    for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
      const std::size_t k1 = std::min(k0 + kTile, k);
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0f) continue;
        mac_row(c + i * n, b + kk * n, aik, n);
      }
    }
  }
}

inline void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate) {
  if (accumulate && k == 0) return;  // C += 0 leaves -0 entries as they are
#pragma omp parallel for schedule(static) default(none) shared(a, b, c) \
    firstprivate(m, k, n, accumulate)
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float d = dot_row(arow, b + j * k, k);
      crow[j] = accumulate ? crow[j] + d : d;
    }
  }
}

inline void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate) {
#pragma omp parallel for schedule(static) default(none) shared(a, b, c) \
    firstprivate(m, k, n, accumulate)
  for (std::size_t i = 0; i < m; ++i) {
    if (!accumulate) std::fill(c + i * n, c + i * n + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aki = a[kk * m + i];
      if (aki == 0.0f) continue;
      mac_row(c + i * n, b + kk * n, aki, n);
    }
  }
}

#endif  // TRKX_KERNELS_AVX2

inline void spmm(const std::uint64_t* row_ptr, const std::uint32_t* col_idx,
                 const float* val, const float* x, float* y, std::size_t rows,
                 std::size_t f) {
#pragma omp parallel for schedule(dynamic, 64) default(none) \
    shared(row_ptr, col_idx, val, x, y) firstprivate(rows, f)
  for (std::size_t i = 0; i < rows; ++i) {
    float* yrow = y + i * f;
    for (std::uint64_t kk = row_ptr[i]; kk < row_ptr[i + 1]; ++kk) {
      mac_row(yrow, x + col_idx[kk] * f, val[kk], f);
    }
  }
}

inline void row_gather(const float* x, const std::uint32_t* idx, float* out,
                       std::size_t n_idx, std::size_t cols, bool accumulate) {
  // Each output row is written by one thread, and the add is exact, so
  // both modes are bit-identical across tables.
#pragma omp parallel for schedule(static) default(none) shared(x, idx, out) \
    firstprivate(n_idx, cols, accumulate)
  for (std::size_t i = 0; i < n_idx; ++i) {
    if (accumulate) {
      vadd_inplace(out + i * cols, x + idx[i] * cols, cols);
    } else {
      std::memcpy(out + i * cols, x + idx[i] * cols, cols * sizeof(float));
    }
  }
}

inline void row_scatter_add(float* dst, const std::uint32_t* idx,
                            const float* src, std::size_t n_rows,
                            std::size_t cols) {
  // Serial over src rows: scatter targets collide, and the graphs here
  // have high-degree vertices, so per-row atomics would be slower.
  for (std::size_t i = 0; i < n_rows; ++i) {
    vadd_inplace(dst + idx[i] * cols, src + i * cols, cols);
  }
}

inline void ew_add(const float* a, const float* b, float* o, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(a, b, o) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vadd(a + i0, b + i0, o + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void ew_sub(const float* a, const float* b, float* o, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(a, b, o) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vsub(a + i0, b + i0, o + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void ew_mul(const float* a, const float* b, float* o, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(a, b, o) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vmul(a + i0, b + i0, o + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void ew_scale(const float* a, float s, float* o, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(a, o) \
    firstprivate(n, s)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vscale(a + i0, s, o + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void ew_add_inplace(float* a, const float* b, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(a, b) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vadd_inplace(a + i0, b + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void relu_fwd(const float* x, float* y, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(x, y) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vrelu(x + i0, y + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void relu_bwd(const float* g, const float* x, float* dx,
                     std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(g, x, dx) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vrelu_bwd(g + i0, x + i0, dx + i0,
              std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void tanh_fwd(const float* x, float* y, std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(x, y) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vtanh(x + i0, y + i0, std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void tanh_bwd(const float* g, const float* y, float* dx,
                     std::size_t n) {
#pragma omp parallel for schedule(static) default(none) shared(g, y, dx) \
    firstprivate(n)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    vtanh_bwd(g + i0, y + i0, dx + i0,
              std::min(std::size_t{kEwBlock}, n - i0));
  }
}

inline void colwise_sum(const float* a, float* o, std::size_t rows,
                        std::size_t cols) {
  // Serial in row order, vectorized across columns: per-column
  // accumulation order matches the historical scalar loop exactly.
  for (std::size_t i = 0; i < rows; ++i) {
    vadd_inplace(o, a + i * cols, cols);
  }
}

inline void relu_layer_norm_fwd(const float* z, const float* gamma,
                                const float* beta, float* y, float* mean,
                                float* inv_std, std::size_t rows,
                                std::size_t cols, float eps) {
  TRKX_CHECK(cols > 0);
#pragma omp parallel for schedule(static) default(none) \
    shared(z, gamma, beta, y, mean, inv_std) firstprivate(rows, cols, eps)
  for (std::size_t i = 0; i < rows; ++i) {
    // y's row holds relu(z), then x̂, then the output: each pass rewrites
    // it in place.
    float* yr = y + i * cols;
    vrelu(z + i * cols, yr, cols);
    float m = sum_row(yr, cols);
    m /= static_cast<float>(cols);  // NOLINT(trkx-div-guard): cols > 0 checked at entry
    float var = sum_sq_diff(yr, m, cols);
    var /= static_cast<float>(cols);  // NOLINT(trkx-div-guard): cols > 0 checked at entry
    const float is = 1.0f / std::sqrt(var + eps);
    mean[i] = m;
    inv_std[i] = is;
    vsubmul(yr, m, is, yr, cols);
    vmuladd3(yr, gamma, beta, yr, cols);
  }
}

inline void relu_layer_norm_bwd(const float* dy, const float* z,
                                const float* gamma, const float* mean,
                                const float* inv_std, float* dz, float* dgamma,
                                float* dbeta, std::size_t rows,
                                std::size_t cols) {
  TRKX_CHECK(cols > 0);
  lnorm_param_grads(dy, z, mean, inv_std, rows, cols, dgamma, dbeta);
  const float inv_cols = 1.0f / static_cast<float>(cols);
#pragma omp parallel for schedule(static) default(none) \
    shared(dy, z, gamma, mean, inv_std, dz) firstprivate(rows, cols, inv_cols)
  for (std::size_t i = 0; i < rows; ++i) {
    // dz's row holds x̂ = (relu(z) - mean)·inv_std, then the layer norm's
    // input gradient, then dz: each pass rewrites it in place.
    const float* zr = z + i * cols;
    float* dzr = dz + i * cols;
    vrelu(zr, dzr, cols);
    vsubmul(dzr, mean[i], inv_std[i], dzr, cols);
    lnorm_bwd_row(dy + i * cols, gamma, dzr, inv_std[i], inv_cols, dzr, cols);
    vrelu_bwd(dzr, zr, dzr, cols);
  }
}

inline void adam_update(float* w, const float* g, float* m, float* v,
                        std::size_t n, const AdamStep& s) {
  const float lr = s.lr;
  const float b1 = s.beta1;
  const float b2 = s.beta2;
  const float eps = s.eps;
  const float wd = s.weight_decay;
  const float ib1 = s.inv_bias1;
  const float ib2 = s.inv_bias2;
#pragma omp parallel for schedule(static) default(none) shared(w, g, m, v) \
    firstprivate(n, lr, b1, b2, eps, wd, ib1, ib2)
  for (std::size_t i0 = 0; i0 < n; i0 += kEwBlock) {
    adam_block(w + i0, g + i0, m + i0, v + i0, std::min(std::size_t{kEwBlock}, n - i0),
               lr, b1, b2, eps, wd, ib1, ib2);
  }
}

/// This ISA's table (one static instance per TU).
inline const KernelTable& table() {
  static const KernelTable t{
      TRKX_KERNELS_NAME, &gemm,     &gemm_nt,     &gemm_tn,
      &spmm,             &row_gather, &row_scatter_add,
      &ew_add,           &ew_sub,   &ew_mul,      &ew_scale,
      &ew_add_inplace,   &relu_fwd, &relu_bwd,    &tanh_fwd,
      &tanh_bwd,         &colwise_sum, &relu_layer_norm_fwd,
      &relu_layer_norm_bwd, &adam_update,
  };
  return t;
}

}  // namespace TRKX_KERNELS_NS
}  // namespace kernels
}  // namespace trkx

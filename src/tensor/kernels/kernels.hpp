#pragma once

#include <cstddef>
#include <cstdint>

namespace trkx {
namespace kernels {

/// One fused Adam update's hyperparameters. Bias corrections are
/// precomputed by the caller (they depend on the step count) so the
/// kernel itself stays purely elementwise.
struct AdamStep {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float weight_decay;
  float inv_bias1;
  float inv_bias2;
};

/// The signature shared by gemm, gemm_nt and gemm_tn.
using GemmFn = void (*)(const float* a, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n,
                        bool accumulate);

/// One ISA's implementation of every hot kernel. Three tables exist —
/// scalar (the reference, numerically identical to the historical loops
/// in ops.cpp/tape.cpp/optimizer.cpp), AVX2 (explicitly vectorized,
/// FMA-contracted only where reassociation is allowed) and AVX-512 (the
/// AVX2 table with its three GEMMs on a wider register tile). Callers
/// route through active(); tests and benches may pin a table directly.
///
/// Numerics contract, enforced by tests/kernels_test.cpp:
///   - bit-identical across tables: row_gather (both modes),
///     row_scatter_add (and so segment_sum), every ew_* kernel, relu_fwd,
///     relu_bwd, tanh_bwd, colwise_sum, adam_update — these are
///     elementwise or preserve the scalar accumulation order exactly, and
///     the AVX2 build never FMA-contracts them;
///   - ULP-bounded against scalar: gemm, gemm_nt, gemm_tn — the AVX2
///     microkernel accumulates each output in the scalar k order but
///     rounds once per FMA step (only the n == 1 dot-product paths
///     reassociate) — and spmm, relu_layer_norm_fwd and the dz and dgamma
///     of relu_layer_norm_bwd (FMA and reassociated 8-lane row sums, which
///     x̂ inherits), and tanh_fwd (std::tanh in the scalar table, a
///     polynomial/exp approximation in the AVX2 one; both keep tanh(±0) =
///     ±0, ±Inf → ±1 and NaN → NaN); relu_layer_norm_bwd's dbeta, a
///     row-order sum of dy alone, is bit-identical;
///   - within one table, relu_layer_norm_fwd/bwd give byte for byte what
///     relu_fwd, the historical layer norm, ew_mul, colwise_sum and
///     relu_bwd give chained: the same row primitives in the same order;
///   - avx512 equals avx2 byte for byte on every entry: its GEMM tile
///     accumulates each output in the same k order with the same FMA and
///     mul-then-add steps, and every other entry is the AVX2 function;
///   - The scalar GEMMs skip zero entries of A and the AVX2/AVX-512 GEMMs
///     do not, so 0 · Inf or 0 · NaN gives NaN in those tables and is
///     masked in the scalar one.
///
/// Outputs marked "overwritten" are written in full, so callers allocate
/// them with Matrix::uninit; outputs marked "accumulating" must be
/// zero-filled (or hold the running sum) — the kernel adds into them.
/// The GEMMs and row_gather choose per call: with `accumulate` false they
/// overwrite their output, with it true they add into it (C += A·B, so a
/// linear layer sums its split products into one output, and k = 0 leaves
/// C untouched).
struct KernelTable {
  const char* name;

  /// c (m×n) = a (m×k) · b (k×n), or c += a · b when accumulate.
  GemmFn gemm;
  /// c (m×n) = a (m×k) · b (n×k)ᵀ, or c += a · bᵀ when accumulate.
  GemmFn gemm_nt;
  /// c (m×n) = a (k×m)ᵀ · b (k×n), or c += aᵀ · b when accumulate.
  GemmFn gemm_tn;
  /// y (rows×f, accumulating) += CSR(row_ptr, col_idx, val) · x (·×f).
  void (*spmm)(const std::uint64_t* row_ptr, const std::uint32_t* col_idx,
               const float* val, const float* x, float* y, std::size_t rows,
               std::size_t f);

  /// out[i, :] = x[idx[i], :], or out[i, :] += x[idx[i], :] when
  /// accumulate (the gather-add after a split GEMM); indices pre-validated
  /// by the caller.
  void (*row_gather)(const float* x, const std::uint32_t* idx, float* out,
                     std::size_t n_idx, std::size_t cols, bool accumulate);
  /// dst[idx[i], :] += src[i, :]; serial over source rows (collisions).
  void (*row_scatter_add)(float* dst, const std::uint32_t* idx,
                          const float* src, std::size_t n_rows,
                          std::size_t cols);

  void (*ew_add)(const float* a, const float* b, float* o, std::size_t n);
  void (*ew_sub)(const float* a, const float* b, float* o, std::size_t n);
  void (*ew_mul)(const float* a, const float* b, float* o, std::size_t n);
  void (*ew_scale)(const float* a, float s, float* o, std::size_t n);
  /// a += b.
  void (*ew_add_inplace)(float* a, const float* b, std::size_t n);

  /// Activations (all outputs overwritten). relu_fwd: y = x > 0 ? x : 0,
  /// so NaN and -0 map to +0. relu_bwd: dx = x > 0 ? g : 0 from the
  /// saved input x. tanh_fwd: y = tanh(x). tanh_bwd: dx = g * (1 - y*y)
  /// from the saved output y (mul then sub, never FMA).
  void (*relu_fwd)(const float* x, float* y, std::size_t n);
  void (*relu_bwd)(const float* g, const float* x, float* dx, std::size_t n);
  void (*tanh_fwd)(const float* x, float* y, std::size_t n);
  void (*tanh_bwd)(const float* g, const float* y, float* dx, std::size_t n);

  /// o (1×cols, accumulating) += column sums of a (rows×cols), in row
  /// order — the exact accumulation order of the historical serial loop.
  void (*colwise_sum)(const float* a, float* o, std::size_t rows,
                      std::size_t cols);

  /// ReLU then layer norm over each row, the hidden block of every MLP
  /// with layer norm: a = relu(z), mean = Σa/cols, inv_std =
  /// 1/sqrt(Σ(a − mean)²/cols + eps), y = (a − mean)·inv_std·gamma + beta.
  /// Writes y (overwritten) and each row's mean and inv_std, nothing else:
  /// relu(z) and x̂ live only in y's row while it is computed.
  void (*relu_layer_norm_fwd)(const float* z, const float* gamma,
                              const float* beta, float* y, float* mean,
                              float* inv_std, std::size_t rows,
                              std::size_t cols, float eps);
  /// Its backward from upstream dy and the saved z, mean and inv_std,
  /// recomputing relu(z) and x̂ (all outputs overwritten). dz: the layer
  /// norm's input gradient masked by z > 0, rows under OpenMP. dgamma =
  /// Σ dy ⊙ x̂ and dbeta = Σ dy over rows in row order (the order of
  /// colwise_sum(hadamard(dy, x̂)) and colwise_sum(dy)), serial.
  void (*relu_layer_norm_bwd)(const float* dy, const float* z,
                              const float* gamma, const float* mean,
                              const float* inv_std, float* dz, float* dgamma,
                              float* dbeta, std::size_t rows,
                              std::size_t cols);

  /// Fused Adam: updates w, m, v in place from gradient g.
  void (*adam_update)(float* w, const float* g, float* m, float* v,
                      std::size_t n, const AdamStep& s);
};

/// kAvx512 is not a TRKX_SIMD value: auto picks it, and tests pin it
/// through set_mode.
enum class SimdMode { kAuto = 0, kScalar, kAvx2, kAvx512 };

/// The dispatch-selected table. Resolved once, lazily: TRKX_SIMD env
/// (auto|avx2|scalar; anything else is a fatal config error) then cpuid.
/// auto picks avx512 on a host with AVX-512F, else avx2 on a host with
/// AVX2+FMA, else scalar. TRKX_SIMD=avx2 on a host without AVX2+FMA is a
/// fatal error.
const KernelTable& active();

/// The reference table (always safe to call).
const KernelTable& scalar_table();
/// The AVX2 table. Always linked; calling its kernels on a host without
/// AVX2+FMA raises SIGILL — check host_has_avx2() first.
const KernelTable& avx2_table();
/// The AVX-512 table. Always linked, and building it runs no AVX-512
/// code; calling its kernels on a host without AVX-512F raises SIGILL —
/// check host_has_avx512() first.
const KernelTable& avx512_table();

/// True iff this host supports AVX2 and FMA.
bool host_has_avx2();
/// True iff this host supports AVX2, FMA and AVX-512F.
bool host_has_avx512();

/// The currently requested mode (kAuto until overridden). active().name
/// tells which ISA kAuto resolved to.
SimdMode mode();
/// Test/bench hook: repoint active() (overrides TRKX_SIMD).
void set_mode(SimdMode m);

}  // namespace kernels
}  // namespace trkx

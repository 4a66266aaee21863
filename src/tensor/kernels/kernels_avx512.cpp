// AVX-512 table: the AVX2 table with gemm, gemm_nt and gemm_tn run on a
// 12×32 register tile of C in zmm accumulators. This translation unit is
// the only one compiled with -mavx512f (see src/tensor/CMakeLists.txt);
// it is always linked, and the dispatch table guards execution, so the
// binary runs on any x86-64 host.
//
// Only the tile is new. The GEMMs' k-block/panel/OpenMP loop is
// kernels_body.hpp's, instantiated here with ZmmTile; their n = 1 paths
// and every other entry of the table are the AVX2 table's own functions
// (avx512_table() in dispatch.cpp copies avx2_table()). Each output
// accumulates exactly as in the AVX2 tile: in k order, one FMA per step,
// starting from +0 or from C, with the columns past the last multiple of
// 8 accumulating mul-then-add as mac_row's scalar tail does. Storing C
// between 256-deep k-blocks is exact, so the wider tile and the masked
// lanes change which instructions run, not a single rounding: the table
// is byte-identical to avx2 on every shape.

#define TRKX_KERNELS_AVX2 1
#define TRKX_KERNELS_NS avx512_impl
#define TRKX_KERNELS_NAME "avx512"
#include "tensor/kernels/kernels_body.hpp"

#include <array>
#include <utility>

namespace trkx {
namespace kernels {
namespace avx512_impl {
namespace {

/// Lanes [0, n) of a 16-lane register, n ≤ 16.
__mmask16 first_lanes(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

/// C[0..R)×[0..16·V) (+)= A·B over kc steps, as gemm_tile: A(r, p) =
/// a[r*rs + p*ks], row p of B at b + p*ldb, starting from C when load_c
/// and from +0 otherwise. The last of the V column vectors touches only
/// the `last` lanes of B and C (masked loads and stores, so nothing past
/// a panel or an operand is read or written); when kTail, its `tail`
/// lanes accumulate mul-then-add and the others one FMA per step. The
/// loops over r and v must unroll, or the accumulators spill.
template <std::size_t R, std::size_t V, bool kTail>
void zmm_tile(const float* a, std::size_t rs, std::size_t ks, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, std::size_t kc,
              bool load_c, __mmask16 last, __mmask16 tail) {
  __mmask16 lanes[V];
#pragma GCC unroll 2
  for (std::size_t v = 0; v < V; ++v)
    lanes[v] = v + 1 < V ? static_cast<__mmask16>(0xffff) : last;
  __m512 acc[R][V];
#pragma GCC unroll 12
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v)
      acc[r][v] = load_c ? _mm512_maskz_loadu_ps(lanes[v], c + r * ldc + 16 * v)
                         : _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    __m512 bv[V];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v)
      bv[v] = _mm512_maskz_loadu_ps(lanes[v], b + p * ldb + 16 * v);
    const float* ap = a + p * ks;
#pragma GCC unroll 12
    for (std::size_t r = 0; r < R; ++r) {
      const __m512 ar = _mm512_set1_ps(ap[r * rs]);
#pragma GCC unroll 2
      for (std::size_t v = 0; v < V; ++v) {
        if (kTail && v + 1 == V) {
          // FMA on the other lanes (tail lanes pass C through), then
          // a·b + c with the product rounded first on the tail lanes. Of
          // two NaNs the product's is kept, as in mac_row's tail: the
          // compiler may order the add's operands either way.
          const __m512 fma = _mm512_mask3_fmadd_ps(
              ar, bv[v], acc[r][v], static_cast<__mmask16>(~tail));
          const __m512 prod = _mm512_maskz_mul_ps(tail, ar, bv[v]);
          const __m512 sum = _mm512_mask_add_ps(fma, tail, prod, fma);
          acc[r][v] = _mm512_mask_mov_ps(
              sum, _mm512_mask_cmp_ps_mask(tail, prod, prod, _CMP_UNORD_Q),
              prod);
        } else {
          acc[r][v] = _mm512_fmadd_ps(ar, bv[v], acc[r][v]);
        }
      }
    }
  }
#pragma GCC unroll 12
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v)
      _mm512_mask_storeu_ps(c + r * ldc + 16 * v, lanes[v], acc[r][v]);
  }
}

using ZmmTileFn = void (*)(const float*, std::size_t, std::size_t,
                           const float*, std::size_t, float*, std::size_t,
                           std::size_t, bool, __mmask16, __mmask16);

/// zmm_tile<1..sizeof...(R), V, kTail>, indexed by rows − 1.
template <std::size_t V, bool kTail, std::size_t... R>
constexpr std::array<ZmmTileFn, sizeof...(R)> zmm_tiles(
    std::index_sequence<R...>) {
  return {&zmm_tile<R + 1, V, kTail>...};
}

/// The AVX-512 register tile: kMr rows × kNr columns of C in 24 zmm
/// accumulators; narrow panels use one or two masked vectors.
struct ZmmTile {
  static constexpr std::size_t kMr = 12;
  static constexpr std::size_t kNr = 32;

  /// One tile of 1..kMr rows and 1..kNr columns (only the last row tile
  /// and the last panel are short). A panel starts at a multiple of 32, so
  /// its columns from nr rounded down to a multiple of 8 on are exactly
  /// the columns the AVX2 table runs through mac_row's scalar tail.
  static void multiply(std::size_t rows, std::size_t nr, const float* a,
                       std::size_t rs, std::size_t ks, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       std::size_t kc, bool load_c) {
    static constexpr auto kSeq = std::make_index_sequence<kMr>{};
    static constexpr std::array<ZmmTileFn, kMr> kTiles[2][2] = {
        {zmm_tiles<1, false>(kSeq), zmm_tiles<1, true>(kSeq)},
        {zmm_tiles<2, false>(kSeq), zmm_tiles<2, true>(kSeq)}};
    const std::size_t vecs = nr > 16 ? 2 : 1;
    const std::size_t skip = 16 * (vecs - 1);  // columns before the last
    const __mmask16 last = first_lanes(nr - skip);
    const __mmask16 tail = static_cast<__mmask16>(
        last & ~first_lanes((nr & ~std::size_t{7}) - skip));
    kTiles[vecs - 1][tail != 0][rows - 1](a, rs, ks, b, ldb, c, ldc, kc,
                                          load_c, last, tail);
  }
};

}  // namespace
}  // namespace avx512_impl

namespace {

// The entry points: n = 1 never reaches a tile, so it runs the AVX2
// table's own function rather than this TU's copy of the same source.

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate) {
  if (n == 1) return avx2_table().gemm(a, b, c, m, k, n, accumulate);
  avx512_impl::gemm<avx512_impl::ZmmTile>(a, b, c, m, k, n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
  if (n == 1) return avx2_table().gemm_nt(a, b, c, m, k, n, accumulate);
  avx512_impl::gemm_nt<avx512_impl::ZmmTile>(a, b, c, m, k, n, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
  if (n == 1) return avx2_table().gemm_tn(a, b, c, m, k, n, accumulate);
  avx512_impl::gemm_tn<avx512_impl::ZmmTile>(a, b, c, m, k, n, accumulate);
}

}  // namespace

// The table's three GEMMs, for avx512_table() in dispatch.cpp. Pointers
// are constant-initialised and the table is built there, in baseline
// code, so no AVX-512 instruction runs before a GEMM is called.
extern const GemmFn kAvx512Gemm, kAvx512GemmNt, kAvx512GemmTn;
const GemmFn kAvx512Gemm = &gemm;
const GemmFn kAvx512GemmNt = &gemm_nt;
const GemmFn kAvx512GemmTn = &gemm_tn;

}  // namespace kernels
}  // namespace trkx

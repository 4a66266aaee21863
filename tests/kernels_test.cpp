#include <gtest/gtest.h>
#include <omp.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/gradcheck.hpp"
#include "autograd/tape.hpp"
#include "gnn/interaction_gnn.hpp"
#include "graph/generators.hpp"
#include "ignn_oracle.hpp"
#include "sparse/csr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

// Sizes chosen to exercise the 16-lane main loop, the 8-lane loop, and
// every scalar-tail length at least once.
const std::size_t kSizes[] = {1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 8205};

std::vector<float> random_vec(std::size_t n, Rng& rng, float lo = -2.0f,
                              float hi = 2.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// `v` with every fourth element replaced by one of NaN, ±0, ±Inf or a
/// ± subnormal, so the activation kernels' edge cases land in the vector
/// lanes and in the scalar tails.
std::vector<float> with_specials(std::vector<float> v) {
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min() * 37.0f;
  const float specials[] = {std::nanf(""), 0.0f, -0.0f, inf, -inf, sub, -sub};
  for (std::size_t i = 0; i < v.size(); i += 4)
    v[i] = specials[(i / 4) % std::size(specials)];
  return v;
}

/// Relative-error check for the reassociated (ULP-bounded) kernels: the
/// AVX2 result must agree with scalar to within a tight bound that only
/// accounts for reassociating a length-k float reduction.
void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  std::size_t k, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  const float tol =
      1e-6f * std::sqrt(static_cast<float>(k > 0 ? k : 1)) * 8.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float denom = std::max(1.0f, std::fabs(ref[i]));
    ASSERT_LE(std::fabs(ref[i] - got[i]) / denom, tol)
        << what << " diverged at " << i << ": " << ref[i] << " vs " << got[i];
  }
}

#define SKIP_WITHOUT_AVX2()                                   \
  do {                                                        \
    if (!kernels::host_has_avx2())                            \
      GTEST_SKIP() << "host lacks AVX2+FMA; nothing to compare"; \
  } while (0)

#define SKIP_WITHOUT_AVX512()                                        \
  do {                                                               \
    if (!kernels::host_has_avx512())                                 \
      GTEST_SKIP() << "host lacks AVX-512F; nothing to compare";     \
  } while (0)

/// The table TRKX_SIMD=auto resolves to on this host.
const char* auto_table_name() {
  if (kernels::host_has_avx512()) return "avx512";
  return kernels::host_has_avx2() ? "avx2" : "scalar";
}

// ---------- dispatch ----------

TEST(KernelDispatch, ActiveTableResolves) {
  const kernels::KernelTable& t = kernels::active();
  ASSERT_NE(t.name, nullptr);
  EXPECT_TRUE(std::strcmp(t.name, "scalar") == 0 ||
              std::strcmp(t.name, "avx2") == 0 ||
              std::strcmp(t.name, "avx512") == 0);
  if (!kernels::host_has_avx2()) {
    EXPECT_STREQ(t.name, "scalar");
  }
  // Under a TRKX_SIMD pin (the CI simd laps) the pinned table is active.
  if (kernels::mode() == kernels::SimdMode::kAuto) {
    EXPECT_STREQ(t.name, auto_table_name());
  }
}

TEST(KernelDispatch, AutoPicksAvx512ExactlyOnAvx512Hosts) {
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kAuto);
  EXPECT_EQ(std::strcmp(kernels::active().name, "avx512") == 0,
            kernels::host_has_avx512());
  EXPECT_STREQ(kernels::active().name, auto_table_name());
  kernels::set_mode(before);
}

TEST(KernelDispatch, SetModeRepointsActive) {
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kScalar);
  EXPECT_STREQ(kernels::active().name, "scalar");
  if (kernels::host_has_avx2()) {
    kernels::set_mode(kernels::SimdMode::kAvx2);
    EXPECT_STREQ(kernels::active().name, "avx2");
  }
  if (kernels::host_has_avx512()) {
    kernels::set_mode(kernels::SimdMode::kAvx512);
    EXPECT_STREQ(kernels::active().name, "avx512");
  }
  kernels::set_mode(before);
}

TEST(KernelDispatch, ScalarTableIsScalar) {
  EXPECT_STREQ(kernels::scalar_table().name, "scalar");
  EXPECT_STREQ(kernels::avx2_table().name, "avx2");
  EXPECT_STREQ(kernels::avx512_table().name, "avx512");
}

// ---------- bit-identical kernels ----------

TEST(KernelEquivalence, ElementwiseBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  Rng rng(7);
  for (std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    std::vector<float> o1(n), o2(n);

    sc.ew_add(a.data(), b.data(), o1.data(), n);
    vx.ew_add(a.data(), b.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_add n=" << n;

    sc.ew_sub(a.data(), b.data(), o1.data(), n);
    vx.ew_sub(a.data(), b.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_sub n=" << n;

    sc.ew_mul(a.data(), b.data(), o1.data(), n);
    vx.ew_mul(a.data(), b.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_mul n=" << n;

    sc.ew_scale(a.data(), 0.37f, o1.data(), n);
    vx.ew_scale(a.data(), 0.37f, o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "ew_scale n=" << n;

    auto i1 = a, i2 = a;
    sc.ew_add_inplace(i1.data(), b.data(), n);
    vx.ew_add_inplace(i2.data(), b.data(), n);
    EXPECT_TRUE(bitwise_equal(i1, i2)) << "ew_add_inplace n=" << n;

    // The activation kernels also see NaN, ±0, ±Inf and subnormals.
    const auto x = with_specials(a);
    const auto g = with_specials(b);
    sc.relu_fwd(x.data(), o1.data(), n);
    vx.relu_fwd(x.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "relu_fwd n=" << n;

    sc.relu_bwd(g.data(), x.data(), o1.data(), n);
    vx.relu_bwd(g.data(), x.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "relu_bwd n=" << n;

    sc.tanh_bwd(g.data(), x.data(), o1.data(), n);
    vx.tanh_bwd(g.data(), x.data(), o2.data(), n);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "tanh_bwd n=" << n;
  }
}

/// Distance between two floats in units in the last place, through the
/// order-preserving map of their bit patterns (±0 are both 0).
std::int64_t ulp_distance(float a, float b) {
  const auto key = [](float f) {
    const auto u = std::bit_cast<std::uint32_t>(f);
    const auto mag = static_cast<std::int64_t>(u & 0x7fffffffu);
    return (u >> 31) != 0 ? -mag : mag;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

bool is_negative_zero(float f) { return f == 0.0f && std::signbit(f); }

TEST(KernelEquivalence, TanhUlpBounded) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  // Against the scalar table's std::tanh; the AVX2 kernel measured at
  // most 2 ULP over this sweep.
  constexpr std::int64_t kMaxUlp = 2;

  // Every 97th finite float magnitude, with both signs: ~44 M points,
  // evaluated a block at a time.
  constexpr std::uint32_t kStride = 97;
  constexpr std::uint32_t kMaxFinite = 0x7f7fffffu;
  std::vector<float> x(1u << 16), y1(x.size()), y2(x.size());
  std::int64_t worst = 0;
  float worst_x = 0.0f;
  std::size_t points = 0;
  for (std::uint64_t bits = 0; bits <= kMaxFinite;) {
    std::size_t n = 0;
    for (; n + 2 <= x.size() && bits <= kMaxFinite; bits += kStride) {
      const float f = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
      x[n++] = f;
      x[n++] = -f;
    }
    sc.tanh_fwd(x.data(), y1.data(), n);
    vx.tanh_fwd(x.data(), y2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t d = ulp_distance(y1[i], y2[i]);
      if (d > worst) {
        worst = d;
        worst_x = x[i];
      }
      ASSERT_LE(std::fabs(y2[i]), 1.0f) << "tanh(" << x[i] << ")";
      ASSERT_EQ(std::signbit(y2[i]), std::signbit(x[i])) << x[i];
    }
    points += n;
  }
  EXPECT_GT(points, 44000000u);
  EXPECT_LE(worst, kMaxUlp) << "worst at x = " << worst_x;

  // Exact cases: the sign of zero, the limits at ±Inf, NaN through.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> edge = {0.0f, -0.0f, inf, -inf, std::nanf(""),
                                   -std::nanf("")};
  std::vector<float> out(edge.size());
  vx.tanh_fwd(edge.data(), out.data(), edge.size());
  EXPECT_TRUE(out[0] == 0.0f && !std::signbit(out[0]));
  EXPECT_TRUE(is_negative_zero(out[1]));
  EXPECT_EQ(out[2], 1.0f);
  EXPECT_EQ(out[3], -1.0f);
  EXPECT_TRUE(std::isnan(out[4]));
  EXPECT_TRUE(std::isnan(out[5]));

  // Lengths 0–17 run every tail path: each element matches the same
  // input's result in a full-width call, and nothing past n is written.
  Rng rng(43);
  const auto in = random_vec(17, rng, -4.0f, 4.0f);
  std::vector<float> full(17);
  vx.tanh_fwd(in.data(), full.data(), in.size());
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<float> part(n + 8, 7.0f);
    vx.tanh_fwd(in.data(), part.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(part[i], full[i]) << "n=" << n << " i=" << i;
      EXPECT_LE(ulp_distance(part[i], std::tanh(in[i])), kMaxUlp);
    }
    for (std::size_t i = n; i < part.size(); ++i)
      EXPECT_EQ(part[i], 7.0f) << "wrote past n=" << n;
  }
}

TEST(KernelEquivalence, GatherScatterBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const kernels::KernelTable& sc = kernels::scalar_table();
  const kernels::KernelTable& vx = kernels::avx2_table();
  Rng rng(11);
  for (std::size_t cols : {1u, 5u, 16u, 33u}) {
    const std::size_t src_rows = 40, n_idx = 70;
    const auto x = random_vec(src_rows * cols, rng);
    std::vector<std::uint32_t> idx(n_idx);
    for (auto& i : idx)
      i = static_cast<std::uint32_t>(rng.uniform() * src_rows) % src_rows;

    std::vector<float> g1(n_idx * cols), g2(n_idx * cols);
    sc.row_gather(x.data(), idx.data(), g1.data(), n_idx, cols, false);
    vx.row_gather(x.data(), idx.data(), g2.data(), n_idx, cols, false);
    EXPECT_TRUE(bitwise_equal(g1, g2)) << "row_gather cols=" << cols;

    // Gather-add (a split linear's out += P[index]): exact on both tables.
    const auto h0 = random_vec(n_idx * cols, rng);
    auto h1 = h0, h2 = h0;
    sc.row_gather(x.data(), idx.data(), h1.data(), n_idx, cols, true);
    vx.row_gather(x.data(), idx.data(), h2.data(), n_idx, cols, true);
    EXPECT_TRUE(bitwise_equal(h1, h2)) << "row_gather add cols=" << cols;
    for (std::size_t i = 0; i < h0.size(); ++i)
      ASSERT_EQ(h1[i], h0[i] + g1[i]) << "row_gather add cols=" << cols;

    // Scatter with colliding indices: accumulation order must match.
    std::vector<float> d1(src_rows * cols, 0.25f), d2(src_rows * cols, 0.25f);
    const auto src = random_vec(n_idx * cols, rng);
    sc.row_scatter_add(d1.data(), idx.data(), src.data(), n_idx, cols);
    vx.row_scatter_add(d2.data(), idx.data(), src.data(), n_idx, cols);
    EXPECT_TRUE(bitwise_equal(d1, d2)) << "row_scatter_add cols=" << cols;
  }
}

TEST(KernelEquivalence, ColwiseSumBitIdentical) {
  SKIP_WITHOUT_AVX2();
  Rng rng(13);
  for (std::size_t cols : {1u, 7u, 8u, 19u, 64u}) {
    const std::size_t rows = 37;
    const auto a = random_vec(rows * cols, rng);
    std::vector<float> o1(cols, 0.0f), o2(cols, 0.0f);
    kernels::scalar_table().colwise_sum(a.data(), o1.data(), rows, cols);
    kernels::avx2_table().colwise_sum(a.data(), o2.data(), rows, cols);
    EXPECT_TRUE(bitwise_equal(o1, o2)) << "colwise_sum cols=" << cols;
  }
}

TEST(KernelEquivalence, AdamUpdateBitIdentical) {
  SKIP_WITHOUT_AVX2();
  Rng rng(17);
  const kernels::AdamStep step{1e-3f, 0.9f,  0.999f, 1e-8f,
                               1e-2f, 10.0f, 1000.1f};
  for (std::size_t n : kSizes) {
    auto w1 = random_vec(n, rng);
    auto g = random_vec(n, rng);
    auto m1 = random_vec(n, rng, -0.1f, 0.1f);
    auto v1 = random_vec(n, rng, 0.0f, 0.1f);
    auto w2 = w1, m2 = m1, v2 = v1;
    kernels::scalar_table().adam_update(w1.data(), g.data(), m1.data(),
                                        v1.data(), n, step);
    kernels::avx2_table().adam_update(w2.data(), g.data(), m2.data(),
                                      v2.data(), n, step);
    EXPECT_TRUE(bitwise_equal(w1, w2)) << "adam w n=" << n;
    EXPECT_TRUE(bitwise_equal(m1, m2)) << "adam m n=" << n;
    EXPECT_TRUE(bitwise_equal(v1, v2)) << "adam v n=" << n;
  }
}

// ---------- ULP-bounded kernels ----------

/// One m×k·k×n shape through all three GEMMs of both tables, in both
/// modes. Overwriting, C starts at NaN, so any output a kernel fails to
/// write shows up. Accumulating, C starts at random C₀ (one entry -0) and
/// both tables must give C₀ + A·B, with the scalar overwrite result as
/// A·B; k = 0 must leave C₀ bit-unchanged.
void expect_gemm_family_close(std::size_t m, std::size_t k, std::size_t n,
                              Rng& rng) {
  using kernels::KernelTable;
  const KernelTable& sc = kernels::scalar_table();
  const KernelTable& vx = kernels::avx2_table();
  SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
  const auto a = random_vec(m * k, rng);   // m×k: gemm, gemm_nt
  const auto at = random_vec(k * m, rng);  // k×m: gemm_tn
  const auto b = random_vec(k * n, rng);   // k×n: gemm, gemm_tn
  const auto bt = random_vec(n * k, rng);  // n×k: gemm_nt
  auto c0 = random_vec(m * n, rng);
  if (!c0.empty()) c0[0] = -0.0f;
  using Gemm = decltype(KernelTable::gemm);
  const struct {
    const char* name;
    Gemm KernelTable::*fn;
    const float* a;
    const float* b;
  } gemms[] = {{"gemm", &KernelTable::gemm, a.data(), b.data()},
               {"gemm_nt", &KernelTable::gemm_nt, a.data(), bt.data()},
               {"gemm_tn", &KernelTable::gemm_tn, at.data(), b.data()}};
  for (const auto& g : gemms) {
    std::vector<float> c1(m * n, std::nanf("")), c2 = c1;
    (sc.*g.fn)(g.a, g.b, c1.data(), m, k, n, false);
    (vx.*g.fn)(g.a, g.b, c2.data(), m, k, n, false);
    expect_close(c1, c2, k, g.name);

    std::vector<float> ref(m * n);
    for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = c0[i] + c1[i];
    auto d1 = c0, d2 = c0;
    (sc.*g.fn)(g.a, g.b, d1.data(), m, k, n, true);
    (vx.*g.fn)(g.a, g.b, d2.data(), m, k, n, true);
    SCOPED_TRACE("accumulate");
    expect_close(ref, d1, k, g.name);
    expect_close(ref, d2, k, g.name);
    if (k == 0) {
      EXPECT_TRUE(bitwise_equal(d1, c0)) << g.name << " scalar k=0";
      EXPECT_TRUE(bitwise_equal(d2, c0)) << g.name << " avx2 k=0";
    }
  }
}

TEST(KernelEquivalence, GemmFamilyClose) {
  SKIP_WITHOUT_AVX2();
  Rng rng(19);
  // Every edge of the 6×16 register tile (m mod 6, n mod 16, the n = 1
  // paths) and of the 256-deep k-block, on both sides of each edge; k = 0
  // must still overwrite every GEMM's C with zeros.
  for (std::size_t m : {1u, 5u, 6u, 7u, 13u})
    for (std::size_t n : {1u, 15u, 16u, 17u, 32u, 33u, 192u})
      for (std::size_t k : {0u, 1u, 8u, 14u, 32u, 192u, 257u})
        expect_gemm_family_close(m, k, n, rng);
  // The IGNN traffic over E = 6451 edge rows (hidden 32, CTD features
  // 14/8): edge- and node-MLP layers, their dX, and the classifier head.
  // The split edge-MLP layer runs one E×32·32×32 GEMM per edge-side block
  // and one V×32·32×32 per vertex-side block (V = 2580).
  for (auto [k, n] : {std::pair<std::size_t, std::size_t>{192, 32},
                      {32, 192},
                      {14, 32},
                      {32, 32},
                      {32, 1},
                      {257, 33}})
    expect_gemm_family_close(6451, k, n, rng);
  expect_gemm_family_close(2580, 32, 32, rng);
  // The weight-gradient reductions: gemm_tn over k = 6451 edge rows
  // crosses 26 k-blocks, over the V = 2580 rows of a split term 11.
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{192, 32},
                      {32, 32},
                      {32, 1},
                      {13, 17}})
    expect_gemm_family_close(m, 6451, n, rng);
  expect_gemm_family_close(32, 2580, 32, rng);
}

/// A GEMM operand of `n` values in [-2, 2): ±0 at every seventh element,
/// NaN, +Inf and -Inf at its quarter points and ± subnormals at eight
/// points between them, so every special reaches the vector lanes
/// without turning most outputs NaN. Subnormal operands cost a microcode
/// assist per instruction, hence so few of them.
std::vector<float> gemm_operand(std::size_t n, Rng& rng) {
  auto v = random_vec(n, rng);
  for (std::size_t i = 3; i < n; i += 7) v[i] = (i / 7) % 2 ? -0.0f : 0.0f;
  const float sub = std::numeric_limits<float>::denorm_min() * 37.0f;
  for (std::size_t q = 0; q < 8 && n > 0; ++q)
    v[(n - 1) * (2 * q + 1) / 16] = q % 2 ? -sub : sub;
  const float inf = std::numeric_limits<float>::infinity();
  const float poison[] = {std::nanf(""), inf, -inf};
  for (std::size_t q = 0; q < 3 && n > 0; ++q)
    v[(n - 1) * (q + 1) / 4] = poison[q];
  return v;
}

struct NamedGemm {
  const char* name;
  kernels::GemmFn kernels::KernelTable::*fn;
};
/// gemm_tn first: kGemms.first(1) is the weight-gradient reduction alone.
constexpr std::array<NamedGemm, 3> kGemms = {
    {{"gemm_tn", &kernels::KernelTable::gemm_tn},
     {"gemm", &kernels::KernelTable::gemm},
     {"gemm_nt", &kernels::KernelTable::gemm_nt}}};

/// One m×k·k×n shape through `gemms` of the avx2 and avx512 tables, in
/// both modes: the outputs must match byte for byte. `a` holds the m·k
/// values of A. Each C carries 32 guard floats past its end, so a store
/// past the operand shows too.
void expect_avx512_gemms_match(const std::vector<float>& a, std::size_t m,
                               std::size_t k, std::size_t n, Rng& rng,
                               std::span<const NamedGemm> gemms) {
  const kernels::KernelTable& vx = kernels::avx2_table();
  const kernels::KernelTable& zx = kernels::avx512_table();
  // Each GEMM reads the same buffers in its own layout: A is m×k (k×m for
  // gemm_tn), B is k×n (n×k for gemm_nt).
  const auto b = gemm_operand(k * n, rng);
  auto c0 = gemm_operand(m * n, rng);
  c0.resize(m * n + 32, 7.0f);
  for (const NamedGemm& g : gemms) {
    for (bool accumulate : {false, true}) {
      std::vector<float> c1 = c0;
      if (!accumulate)
        std::fill(c1.begin(), c1.begin() + m * n, std::nanf(""));
      std::vector<float> c2 = c1;
      (vx.*g.fn)(a.data(), b.data(), c1.data(), m, k, n, accumulate);
      (zx.*g.fn)(a.data(), b.data(), c2.data(), m, k, n, accumulate);
      const auto diff = std::mismatch(
          c1.begin(), c1.end(), c2.begin(), [](float x, float y) {
            return std::bit_cast<std::uint32_t>(x) ==
                   std::bit_cast<std::uint32_t>(y);
          });
      ASSERT_TRUE(diff.first == c1.end())
          << g.name << " m=" << m << " k=" << k << " n=" << n
          << (accumulate ? " accumulate" : " overwrite") << ": element "
          << (diff.first - c1.begin()) << " is " << std::hex
          << std::bit_cast<std::uint32_t>(*diff.first) << " in avx2, "
          << std::bit_cast<std::uint32_t>(*diff.second) << " in avx512";
    }
  }
}

/// One shard of the avx2-vs-avx512 GEMM grid: an OpenMP thread count, a
/// row count m and the depths k and widths n it covers, with its own Rng
/// seed. The grid crosses both sides of the 12-row tile edge, the 16- and
/// 32-column panels, the 8-column FMA/mul-add boundary and the 256-deep
/// k-block, at the IGNN row counts (V = 2580, E = 6451); gemm_tn also
/// reduces over k = 6451 rows. Each OpenMP thread count splits the row
/// tiles differently. m = 6451 takes one shard per k, and its largest
/// product, gemm_tn over 6451 × 6451, two, so that no shard holds the
/// suite up.
struct Avx512GemmShard {
  std::string name;  // threads, m, and k and n where the shard has one part
  int threads;
  std::size_t m;
  std::vector<std::size_t> ks, ns;
  std::uint64_t seed;
};

std::vector<Avx512GemmShard> avx512_gemm_shards() {
  const std::vector<std::size_t> ks = {0, 1, 8, 14, 32, 255, 256, 257, 6451};
  const std::vector<std::size_t> ns = {1,  2,  4,  7,  8,  9,  15, 16,
                                       17, 24, 31, 32, 33, 40, 64, 192};
  std::vector<Avx512GemmShard> shards;
  const auto add = [&](int threads, std::size_t m, std::vector<std::size_t> k,
                       std::vector<std::size_t> n) {
    std::string name = "threads";
    name += std::to_string(threads);
    name += "_m";
    name += std::to_string(m);
    if (k.size() == 1) {
      name += "_k";
      name += std::to_string(k.front());
    }
    if (n != ns) {
      name += "_n";
      name += std::to_string(n.front());
      name += "to";
      name += std::to_string(n.back());
    }
    const std::uint64_t seed = 37 + shards.size();
    shards.push_back({name, threads, m, std::move(k), std::move(n), seed});
  };
  for (int threads : {1, 3})
    for (std::size_t m : {1u, 11u, 12u, 13u, 25u, 2580u, 6451u}) {
      if (m != 6451) {
        add(threads, m, ks, ns);
        continue;
      }
      for (std::size_t k : ks) {
        if (k != 6451) {
          add(threads, m, {k}, ns);
          continue;
        }
        // About half the work each: n ≤ 40, then n = 64 and 192.
        add(threads, m, {k}, {ns.begin(), ns.end() - 2});
        add(threads, m, {k}, {ns.end() - 2, ns.end()});
      }
    }
  return shards;
}

void PrintTo(const Avx512GemmShard& s, std::ostream* os) { *os << s.name; }

class Avx512GemmGrid : public ::testing::TestWithParam<Avx512GemmShard> {};

TEST_P(Avx512GemmGrid, MatchesAvx2Bytes) {
  SKIP_WITHOUT_AVX512();
  const Avx512GemmShard& shard = GetParam();
  Rng rng(shard.seed);
  const int threads_before = omp_get_max_threads();
  omp_set_num_threads(shard.threads);
  for (std::size_t k : shard.ks) {
    const auto a = gemm_operand(shard.m * k, rng);
    const auto gemms =
        k == 6451 ? std::span(kGemms).first(1) : std::span(kGemms);
    for (std::size_t n : shard.ns)
      expect_avx512_gemms_match(a, shard.m, k, n, rng, gemms);
  }
  omp_set_num_threads(threads_before);
}

// gtest_discover_tests names each case by its printed parameter (PrintTo).
INSTANTIATE_TEST_SUITE_P(KernelEquivalence, Avx512GemmGrid,
                         ::testing::ValuesIn(avx512_gemm_shards()));

/// `n` floats that end exactly at a page boundary, followed by a page
/// mapped PROT_NONE, so a load or store past the last one faults. ASan
/// does not check masked vector loads and stores; this does.
class PageEndFloats {
 public:
  explicit PageEndFloats(const std::vector<float>& values) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t body =
        (values.size() * sizeof(float) + page - 1) / page * page;
    bytes_ = body + page;
    void* base = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + body, page, PROT_NONE) != 0)
      throw std::runtime_error("mprotect failed");
    data_ = reinterpret_cast<float*>(base_ + body) -
            static_cast<std::ptrdiff_t>(values.size());
    std::copy(values.begin(), values.end(), data_);
  }
  PageEndFloats(const PageEndFloats&) = delete;
  PageEndFloats& operator=(const PageEndFloats&) = delete;
  ~PageEndFloats() { munmap(base_, bytes_); }
  float* data() { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t bytes_ = 0;
  float* data_ = nullptr;
};

TEST(KernelEquivalence, Avx512GemmsStayInsideOperands) {
  SKIP_WITHOUT_AVX512();
  const kernels::KernelTable& zx = kernels::avx512_table();
  Rng rng(41);
  // Narrow and partly masked panels, short row tiles, one and two
  // k-blocks: every operand ends at an inaccessible page, so a masked
  // lane that reads or writes past it kills the test.
  for (std::size_t m : {1u, 13u})
    for (std::size_t n : {2u, 7u, 9u, 17u, 31u, 33u})
      for (std::size_t k : {1u, 14u, 257u}) {
        PageEndFloats a(random_vec(m * k, rng));
        PageEndFloats b(random_vec(k * n, rng));
        PageEndFloats c(random_vec(m * n, rng));
        for (const NamedGemm& g : kGemms)
          for (bool accumulate : {false, true})
            (zx.*g.fn)(a.data(), b.data(), c.data(), m, k, n, accumulate);
      }
}

TEST(KernelEquivalence, SpmmClose) {
  SKIP_WITHOUT_AVX2();
  Rng rng(23);
  const std::size_t rows = 50, cols = 40, f = 17;
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.uniform() < 0.15)
        trips.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j),
                         rng.uniform(-1.0f, 1.0f)});
  const CsrMatrix a = CsrMatrix::from_triplets(rows, cols, trips);
  const auto x = random_vec(cols * f, rng);
  std::vector<float> y1(rows * f, 0.0f), y2(rows * f, 0.0f);
  kernels::scalar_table().spmm(a.row_ptr().data(), a.col_idx().data(),
                               a.values().data(), x.data(), y1.data(), rows,
                               f);
  kernels::avx2_table().spmm(a.row_ptr().data(), a.col_idx().data(),
                             a.values().data(), x.data(), y2.data(), rows, f);
  expect_close(y1, y2, cols, "spmm");
}

/// The fused relu → layer-norm block's inputs: z and dy (rows×cols),
/// gamma and beta. With `specials`, z carries NaN, ±0, ±Inf and a
/// subnormal in its even rows and dy NaN, ±0 and ±Inf in its odd rows,
/// one per row: relu maps z's NaN and -Inf to 0, a +Inf turns its row's
/// x̂ into NaN, and a non-finite dy reaches its row of dz and its column
/// of dgamma and dbeta.
struct LayerNormCase {
  std::vector<float> z, dy, gamma, beta;
};

LayerNormCase layer_norm_case(std::size_t rows, std::size_t cols,
                              bool specials, Rng& rng) {
  LayerNormCase c{random_vec(rows * cols, rng), random_vec(rows * cols, rng),
                  random_vec(cols, rng, 0.5f, 1.5f), random_vec(cols, rng)};
  if (!specials) return c;
  const float inf = std::numeric_limits<float>::infinity();
  const float z_specials[] = {std::nanf(""), 0.0f, -0.0f, inf, -inf,
                              std::numeric_limits<float>::denorm_min()};
  const float dy_specials[] = {std::nanf(""), 0.0f, -0.0f, inf, -inf};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t j = (i * 5 + 1) % cols;
    if (i % 2 == 0) {
      c.z[i * cols + j] = z_specials[(i / 2) % std::size(z_specials)];
    } else {
      c.dy[i * cols + j] = dy_specials[(i / 2) % std::size(dy_specials)];
    }
  }
  return c;
}

/// The fused block's outputs under one table.
struct LayerNormOut {
  std::vector<float> y, mean, inv_std, dz, dgamma, dbeta;
};

LayerNormOut run_relu_layer_norm(const kernels::KernelTable& t,
                                 const LayerNormCase& c, std::size_t rows,
                                 std::size_t cols) {
  // NaN-filled, so an output a kernel fails to write shows.
  const float nan = std::nanf("");
  LayerNormOut o{std::vector<float>(rows * cols, nan),
                 std::vector<float>(rows, nan),
                 std::vector<float>(rows, nan),
                 std::vector<float>(rows * cols, nan),
                 std::vector<float>(cols, nan),
                 std::vector<float>(cols, nan)};
  t.relu_layer_norm_fwd(c.z.data(), c.gamma.data(), c.beta.data(),
                        o.y.data(), o.mean.data(), o.inv_std.data(), rows,
                        cols, 1e-5f);
  t.relu_layer_norm_bwd(c.dy.data(), c.z.data(), c.gamma.data(),
                        o.mean.data(), o.inv_std.data(), o.dz.data(),
                        o.dgamma.data(), o.dbeta.data(), rows, cols);
  return o;
}

/// expect_close, except that a NaN must meet a NaN.
void expect_close_or_nan(const std::vector<float>& ref,
                         const std::vector<float>& got, std::size_t k,
                         const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  std::vector<float> r = ref, g = got;
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(std::isnan(r[i]), std::isnan(g[i]))
        << what << " NaN mismatch at " << i << ": " << r[i] << " vs " << g[i];
    if (std::isnan(r[i])) r[i] = g[i] = 0.0f;
    if (std::isinf(r[i]) && r[i] == g[i]) r[i] = g[i] = 0.0f;
  }
  expect_close(r, g, k, what);
}

TEST(KernelEquivalence, ReductionsAndLayerNormClose) {
  SKIP_WITHOUT_AVX2();
  // The fused relu → layer norm: y, dz and dgamma inherit avx2's
  // reassociated row sums (x̂ does), so they are held to expect_close;
  // dbeta sums dy alone in row order and must match bit for bit; the
  // avx512 table must give the avx2 bytes.
  Rng rng(29);
  for (bool specials : {false, true}) {
    for (std::size_t cols : {1u, 9u, 64u, 131u}) {
      SCOPED_TRACE(::testing::Message()
                   << "cols " << cols << " specials " << specials);
      const std::size_t rows = 23;
      const LayerNormCase c = layer_norm_case(rows, cols, specials, rng);
      const LayerNormOut sc =
          run_relu_layer_norm(kernels::scalar_table(), c, rows, cols);
      const LayerNormOut vx =
          run_relu_layer_norm(kernels::avx2_table(), c, rows, cols);
      expect_close_or_nan(sc.y, vx.y, cols, "relu_layer_norm_fwd y");
      expect_close_or_nan(sc.inv_std, vx.inv_std, cols, "inv_std");
      expect_close_or_nan(sc.dz, vx.dz, cols, "relu_layer_norm_bwd dz");
      expect_close_or_nan(sc.dgamma, vx.dgamma, rows, "dgamma");
      EXPECT_TRUE(bitwise_equal(sc.dbeta, vx.dbeta)) << "dbeta";
      if (!kernels::host_has_avx512()) continue;
      const LayerNormOut zx =
          run_relu_layer_norm(kernels::avx512_table(), c, rows, cols);
      for (const auto& [a, b, what] :
           {std::tuple{&vx.y, &zx.y, "y"}, {&vx.mean, &zx.mean, "mean"},
            {&vx.inv_std, &zx.inv_std, "inv_std"}, {&vx.dz, &zx.dz, "dz"},
            {&vx.dgamma, &zx.dgamma, "dgamma"},
            {&vx.dbeta, &zx.dbeta, "dbeta"}})
        EXPECT_TRUE(bitwise_equal(*a, *b)) << "avx512 " << what;
    }
  }
}

/// The historical hidden block, literally: relu, the layer norm forward
/// saving x̂ and 1/σ, then its backward — colwise_sum(hadamard(dy, x̂)),
/// colwise_sum(dy), the layer norm's input gradient and relu_bwd — as the
/// serial loops of the ops the fused kernels replaced.
LayerNormOut historical_relu_layer_norm(const LayerNormCase& c,
                                        std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  std::vector<float> a(n), xhat(n), inv_std(rows), prod(n), dx(n);
  for (std::size_t k = 0; k < n; ++k) a[k] = c.z[k] > 0.0f ? c.z[k] : 0.0f;
  LayerNormOut o{std::vector<float>(n), {}, {}, std::vector<float>(n),
                 std::vector<float>(cols, 0.0f), std::vector<float>(cols, 0.0f)};
  for (std::size_t i = 0; i < rows; ++i) {
    const float* ar = a.data() + i * cols;
    float m = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) m += ar[j];
    m /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) var += (ar[j] - m) * (ar[j] - m);
    var /= static_cast<float>(cols);
    inv_std[i] = 1.0f / std::sqrt(var + 1e-5f);
    for (std::size_t j = 0; j < cols; ++j) {
      xhat[i * cols + j] = (ar[j] - m) * inv_std[i];
      o.y[i * cols + j] = xhat[i * cols + j] * c.gamma[j] + c.beta[j];
    }
  }
  for (std::size_t k = 0; k < n; ++k) prod[k] = c.dy[k] * xhat[k];
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      o.dgamma[j] += prod[i * cols + j];
      o.dbeta[j] += c.dy[i * cols + j];
    }
  }
  const float inv_cols = 1.0f / static_cast<float>(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* dyr = c.dy.data() + i * cols;
    const float* xh = xhat.data() + i * cols;
    float sum_dyg = 0.0f, sum_dyg_xhat = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) {
      const float dyg = dyr[j] * c.gamma[j];
      sum_dyg += dyg;
      sum_dyg_xhat += dyg * xh[j];
    }
    for (std::size_t j = 0; j < cols; ++j) {
      const float dyg = dyr[j] * c.gamma[j];
      dx[i * cols + j] = inv_std[i] * (dyg - inv_cols * sum_dyg -
                                       xh[j] * inv_cols * sum_dyg_xhat);
    }
  }
  for (std::size_t k = 0; k < n; ++k)
    o.dz[k] = c.z[k] > 0.0f ? dx[k] : 0.0f;
  return o;
}

/// Bitwise equality, except that any NaN matches any NaN: where two NaNs
/// meet (a NaN dy times a NaN x̂, summed into a NaN dgamma), x86 keeps the
/// first operand's payload, and the compiler orders a scalar add's
/// operands as it likes.
bool bitwise_equal_or_nan(const std::vector<float>& a,
                          const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  }
  return true;
}

TEST(KernelEquivalence, ScalarReluLayerNormMatchesHistoricalLoops) {
  // The scalar table is the reference: its fused kernels must give the
  // historical chain's bytes exactly, specials included (up to which
  // NaN a NaN is).
  Rng rng(37);
  for (bool specials : {false, true}) {
    for (std::size_t cols : {1u, 9u, 64u, 131u}) {
      SCOPED_TRACE(::testing::Message()
                   << "cols " << cols << " specials " << specials);
      const std::size_t rows = 23;
      const LayerNormCase c = layer_norm_case(rows, cols, specials, rng);
      const LayerNormOut fused =
          run_relu_layer_norm(kernels::scalar_table(), c, rows, cols);
      const LayerNormOut lit = historical_relu_layer_norm(c, rows, cols);
      EXPECT_TRUE(bitwise_equal_or_nan(fused.y, lit.y)) << "y";
      EXPECT_TRUE(bitwise_equal_or_nan(fused.dz, lit.dz)) << "dz";
      EXPECT_TRUE(bitwise_equal_or_nan(fused.dgamma, lit.dgamma)) << "dgamma";
      EXPECT_TRUE(bitwise_equal_or_nan(fused.dbeta, lit.dbeta)) << "dbeta";
    }
  }
}

// ---------- gradcheck through each dispatch path ----------

/// The representative tape program: matmul + relu_layer_norm + sigmoid +
/// mean_square touches gemm, gemm_nt/tn (backward), relu_layer_norm
/// fwd/bwd, and the elementwise kernels.
GradcheckResult gradcheck_network() {
  Rng rng(31);
  Matrix x = Matrix::random_normal(6, 5, rng);
  Matrix w = Matrix::random_normal(5, 4, rng);
  Matrix gamma = Matrix::random_normal(1, 4, rng, 1.0f, 0.1f);
  Matrix beta = Matrix::random_normal(1, 4, rng, 0.0f, 0.1f);
  return gradcheck(
      [](const std::vector<Matrix>& in, std::vector<Matrix>* grads) {
        Tape tape;
        Var x = tape.leaf(in[0], true);
        Var w = tape.leaf(in[1], true);
        Var gamma = tape.leaf(in[2], true);
        Var beta = tape.leaf(in[3], true);
        Var h = tape.relu_layer_norm(tape.matmul(x, w), gamma, beta, 1e-5f);
        Var loss = tape.mean_square(tape.sigmoid(h));
        const double v = loss.value()(0, 0);
        if (grads) {
          tape.backward(loss);
          grads->push_back(x.grad());
          grads->push_back(w.grad());
          grads->push_back(gamma.grad());
          grads->push_back(beta.grad());
        }
        return v;
      },
      {x, w, gamma, beta});
}

TEST(KernelGradcheck, ScalarPath) {
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kScalar);
  const auto result = gradcheck_network();
  kernels::set_mode(before);
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

TEST(KernelGradcheck, Avx2Path) {
  SKIP_WITHOUT_AVX2();
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kAvx2);
  const auto result = gradcheck_network();
  kernels::set_mode(before);
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

TEST(KernelGradcheck, Avx512Path) {
  SKIP_WITHOUT_AVX512();
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(kernels::SimdMode::kAvx512);
  const auto result = gradcheck_network();
  kernels::set_mode(before);
  EXPECT_TRUE(result.passed) << "max abs err " << result.max_abs_error;
}

// ---------- oracle: one IGNN training step on each table ----------

/// Forward + backward of a CTD-shaped IGNN (features 14/8, hidden 32,
/// 4 layers, 2 hidden layers per MLP) on 1200 edges, under one table. The
/// model, graph and labels are rebuilt from `seed` for each call; `nudge`
/// scales the node and edge inputs.
oracle::IgnnStep ignn_step(kernels::SimdMode mode, std::uint64_t seed,
                           float nudge = 1.0f) {
  const kernels::SimdMode before = kernels::mode();
  kernels::set_mode(mode);
  Rng rng(seed);
  IgnnConfig cfg;
  cfg.node_input_dim = 14;
  cfg.edge_input_dim = 8;
  cfg.hidden_dim = 32;
  cfg.num_layers = 4;
  cfg.mlp_hidden = 2;
  ParameterStore store;
  InteractionGnn gnn(store, cfg, rng);
  const Graph g = random_regular_out(400, 3, rng);
  const Matrix x = scale(Matrix::random_normal(g.num_vertices(), 14, rng),
                         nudge);
  const Matrix y = scale(Matrix::random_normal(g.num_edges(), 8, rng), nudge);
  std::vector<float> labels(g.num_edges());
  for (float& l : labels) l = rng.uniform() < 0.3 ? 1.0f : 0.0f;
  oracle::IgnnStep out = oracle::run_step(store, labels, [&](TapeContext& ctx) {
    return gnn.forward(ctx, x, y, g);
  });
  kernels::set_mode(before);
  return out;
}

TEST(KernelOracle, IgnnStepScalarMatchesAvx2) {
  SKIP_WITHOUT_AVX2();
  // FMA rounding and reassociated reductions, carried through 4 layers
  // of MLPs and layer norms, held to oracle::kink_bounds with the scalar
  // step as reference; an accumulate/overwrite or tiling bug is O(1).
  for (std::uint64_t seed = 30; seed <= 41; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const oracle::IgnnStep sc = ignn_step(kernels::SimdMode::kScalar, seed);
    const oracle::IgnnStep vx = ignn_step(kernels::SimdMode::kAvx2, seed);
    ASSERT_EQ(sc.logits.size(), 1200u);
    oracle::expect_step_matches(sc, vx, [&](float f) {
      return ignn_step(kernels::SimdMode::kScalar, seed, f);
    });
  }
}

TEST(KernelOracle, IgnnStepAvx512MatchesAvx2Bytes) {
  SKIP_WITHOUT_AVX512();
  // The avx512 table differs from avx2 only in its GEMM tile, which
  // rounds every output identically: the whole step is byte for byte.
  for (std::uint64_t seed = 30; seed <= 41; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const oracle::IgnnStep vx = ignn_step(kernels::SimdMode::kAvx2, seed);
    const oracle::IgnnStep zx = ignn_step(kernels::SimdMode::kAvx512, seed);
    ASSERT_EQ(vx.logits.size(), 1200u);
    EXPECT_TRUE(bitwise_equal(vx.logits, zx.logits)) << "logits";
    EXPECT_EQ(std::bit_cast<std::uint32_t>(vx.loss),
              std::bit_cast<std::uint32_t>(zx.loss))
        << "loss " << vx.loss << " vs " << zx.loss;
    ASSERT_EQ(vx.grads.size(), zx.grads.size());
    for (std::size_t i = 0; i < vx.grads.size(); ++i) {
      EXPECT_EQ(vx.grads[i].first, zx.grads[i].first);
      EXPECT_TRUE(bitwise_equal(vx.grads[i].second, zx.grads[i].second))
          << "gradient of " << vx.grads[i].first;
    }
  }
}

}  // namespace
}  // namespace trkx

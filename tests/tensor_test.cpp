#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace trkx {
namespace {

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      for (std::size_t k = 0; k < a.cols(); ++k)
        c(i, j) += a(i, k) * b(k, j);
  return c;
}

// ---------- Matrix basics ----------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.at(2, 3), 1.5f);
  m.at(1, 2) = -2.0f;
  EXPECT_EQ(m(1, 2), -2.0f);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 6.0f);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), Error);
}

TEST(MatrixTest, OutOfRangeAtThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(MatrixTest, Identity) {
  Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(i(r, c), r == c ? 1.0f : 0.0f);
}

TEST(MatrixTest, RandomUniformInRange) {
  Rng rng(1);
  Matrix m = Matrix::random_uniform(10, 10, rng, -2.0f, 3.0f);
  for (float x : m.flat()) {
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(MatrixTest, RandomNormalMoments) {
  Rng rng(2);
  Matrix m = Matrix::random_normal(100, 100, rng, 1.0f, 2.0f);
  double sum = 0.0;
  for (float x : m.flat()) sum += x;
  EXPECT_NEAR(sum / m.size(), 1.0, 0.05);
}

TEST(MatrixTest, NormsAndSums) {
  Matrix m{{3, 4}, {0, 0}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_EQ(m.abs_max(), 4.0f);
  EXPECT_DOUBLE_EQ(m.sum(), 7.0);
}

TEST(MatrixTest, AllFinite) {
  Matrix m(2, 2, 1.0f);
  EXPECT_TRUE(m.all_finite());
  m(0, 0) = std::nanf("");
  EXPECT_FALSE(m.all_finite());
  m(0, 0) = INFINITY;
  EXPECT_FALSE(m.all_finite());
}

TEST(MatrixTest, RowSpan) {
  Matrix m{{1, 2}, {3, 4}};
  auto r = m.row(1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], 3.0f);
  r[1] = 9.0f;
  EXPECT_EQ(m(1, 1), 9.0f);
}

TEST(MatrixTest, UninitHasShapeAndCopiesByValue) {
  Matrix m = Matrix::uninit(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(i);
  const Matrix copy = m;
  EXPECT_EQ(copy, m);
  EXPECT_NE(copy.data(), m.data());
  Matrix smaller(1, 2, 7.0f), larger(9, 9, 7.0f);
  smaller = m;
  larger = m;
  EXPECT_EQ(smaller, m);
  EXPECT_EQ(larger, m);
  const Matrix* self = &larger;
  larger = *self;
  EXPECT_EQ(larger, m);
  EXPECT_TRUE(Matrix::uninit(0, 5).empty());
  EXPECT_EQ(Matrix(2, 3), Matrix::zeros(2, 3));  // the sized ctor still zeroes
}

// ASan builds (the CI asan-ubsan leg) fill uninit buffers with quiet NaN,
// so an element a producer forgets to write poisons every check
// downstream of it.
TEST(MatrixTest, UninitIsNanFilledUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  const Matrix m = Matrix::uninit(5, 7);
  for (float v : m.flat()) EXPECT_TRUE(std::isnan(v));
#else
  GTEST_SKIP() << "the NaN fill is compiled into ASan builds only";
#endif
}

// matrix.cpp's start-up malloc policy keeps freed buffers in the heap, so
// a step refills the pages the last step freed instead of faulting them
// in again. Each step here allocates forty 64 KiB buffers (640 pages),
// fills them and frees them all; under glibc's defaults 100 steps take
// about 61 K minor faults, on the main thread and on a second one alike.
TEST(MatrixTest, FreedBuffersStayResident) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the policy is glibc's; ASan and TSan ignore mallopt";
#else
  constexpr int kBuffers = 40;
  constexpr long kPagesPerStep = kBuffers * 16;
  const auto minor_faults = [] {
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
  };
  const auto faults_over_steps = [&] {
    double total = 0.0;
    const auto step = [&] {
      std::vector<Matrix> live;
      live.reserve(kBuffers);
      for (int i = 0; i < kBuffers; ++i) live.emplace_back(128, 128, 1.0f);
      for (const Matrix& m : live) total += m.sum();  // the buffers escape
    };
    step();  // warm-up: the first step faults its pages in
    const long before = minor_faults();
    for (int s = 0; s < 100; ++s) step();
    const long faults = minor_faults() - before;
    EXPECT_EQ(total, 101.0 * kBuffers * 128 * 128);
    return faults;
  };
  EXPECT_LT(faults_over_steps(), kPagesPerStep);
  long on_thread = -1;
  std::thread([&] { on_thread = faults_over_steps(); }).join();
  EXPECT_GE(on_thread, 0);
  EXPECT_LT(on_thread, kPagesPerStep);
#endif
}

// ---------- matmul family (parameterized over shapes) ----------

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapes, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = Matrix::random_normal(m, k, rng);
  Matrix b = Matrix::random_normal(k, n, rng);
  EXPECT_TRUE(allclose(matmul(a, b), naive_matmul(a, b), 1e-4f, 1e-3f));
}

TEST_P(MatmulShapes, TransposedVariantsMatch) {
  auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  Matrix a = Matrix::random_normal(m, k, rng);
  Matrix b = Matrix::random_normal(k, n, rng);
  // A·B == (Aᵀ)ᵀ·B == A·(Bᵀ)ᵀ through the fused variants.
  Matrix ref = matmul(a, b);
  EXPECT_TRUE(allclose(matmul_nt(a, transpose(b)), ref, 1e-4f, 1e-3f));
  EXPECT_TRUE(allclose(matmul_tn(transpose(a), b), ref, 1e-4f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 64, 1), std::make_tuple(33, 1, 17),
                      std::make_tuple(65, 70, 129)));

TEST(OpsTest, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(OpsTest, TransposeInvolution) {
  Rng rng(3);
  Matrix a = Matrix::random_normal(5, 7, rng);
  EXPECT_EQ(transpose(transpose(a)), a);
}

// ---------- elementwise ----------

TEST(OpsTest, AddSubHadamardScale) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  EXPECT_EQ(add(a, b), (Matrix{{6, 8}, {10, 12}}));
  EXPECT_EQ(sub(b, a), (Matrix{{4, 4}, {4, 4}}));
  EXPECT_EQ(hadamard(a, b), (Matrix{{5, 12}, {21, 32}}));
  EXPECT_EQ(scale(a, 2.0f), (Matrix{{2, 4}, {6, 8}}));
}

TEST(OpsTest, InplaceVariants) {
  Matrix a{{1, 1}};
  add_inplace(a, Matrix{{2, 3}});
  EXPECT_EQ(a, (Matrix{{3, 4}}));
}

TEST(OpsTest, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(add(a, b), Error);
  EXPECT_THROW(add_inplace(a, b), Error);
}

TEST(OpsTest, RowBroadcastAndColSum) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(colwise_sum(a), (Matrix{{4, 6}}));
}

// ---------- concat / slice ----------

TEST(OpsTest, ConcatColsRoundTripsWithSlice) {
  Rng rng(4);
  Matrix a = Matrix::random_normal(3, 2, rng);
  Matrix b = Matrix::random_normal(3, 5, rng);
  Matrix c = Matrix::random_normal(3, 1, rng);
  Matrix cat = concat_cols({&a, &b, &c});
  EXPECT_EQ(cat.cols(), 8u);
  EXPECT_EQ(slice_cols(cat, 0, 2), a);
  EXPECT_EQ(slice_cols(cat, 2, 5), b);
  EXPECT_EQ(slice_cols(cat, 7, 1), c);
}

TEST(OpsTest, ConcatRowsRoundTripsWithSlice) {
  Rng rng(5);
  Matrix a = Matrix::random_normal(2, 3, rng);
  Matrix b = Matrix::random_normal(4, 3, rng);
  Matrix cat = concat_rows({&a, &b});
  EXPECT_EQ(cat.rows(), 6u);
  EXPECT_EQ(slice_rows(cat, 0, 2), a);
  EXPECT_EQ(slice_rows(cat, 2, 4), b);
}

TEST(OpsTest, ConcatColsRowMismatchThrows) {
  Matrix a(2, 2), b(3, 2);
  EXPECT_THROW(concat_cols({&a, &b}), Error);
}

TEST(OpsTest, SliceOutOfRangeThrows) {
  Matrix a(2, 4);
  EXPECT_THROW(slice_cols(a, 3, 2), Error);
  EXPECT_THROW(slice_rows(a, 1, 2), Error);
}

// ---------- gather / scatter / segment ----------

TEST(OpsTest, RowGather) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  Matrix g = row_gather(x, {2, 0, 2});
  EXPECT_EQ(g, (Matrix{{5, 6}, {1, 2}, {5, 6}}));
}

TEST(OpsTest, RowGatherOutOfRangeThrows) {
  Matrix x(2, 2);
  EXPECT_THROW(row_gather(x, {2}), Error);
}

TEST(OpsTest, RowScatterAddAccumulates) {
  Matrix dst(3, 2, 0.0f);
  Matrix src{{1, 1}, {2, 2}, {3, 3}};
  row_scatter_add(dst, {1, 1, 0}, src);
  EXPECT_EQ(dst, (Matrix{{3, 3}, {3, 3}, {0, 0}}));
}

TEST(OpsTest, SegmentSumIsGatherAdjoint) {
  // <segment_sum(y, idx), x> == <y, row_gather(x, idx)> for all x, y.
  Rng rng(6);
  const std::vector<std::uint32_t> idx{0, 2, 2, 1, 0};
  Matrix y = Matrix::random_normal(5, 3, rng);
  Matrix x = Matrix::random_normal(4, 3, rng);
  Matrix s = segment_sum(y, idx, 4);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i)
    lhs += s.data()[i] * x.data()[i];
  Matrix g = row_gather(x, idx);
  for (std::size_t i = 0; i < g.size(); ++i)
    rhs += g.data()[i] * y.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(OpsTest, SegmentSumValues) {
  Matrix y{{1, 0}, {2, 0}, {4, 1}};
  Matrix s = segment_sum(y, {1, 1, 0}, 3);
  EXPECT_EQ(s, (Matrix{{4, 1}, {3, 0}, {0, 0}}));
}

// ---------- comparisons ----------

TEST(OpsTest, AllcloseToleratesSmallError) {
  Matrix a{{1.0f, 2.0f}};
  Matrix b{{1.0f + 5e-6f, 2.0f}};
  EXPECT_TRUE(allclose(a, b));
  Matrix c{{1.1f, 2.0f}};
  EXPECT_FALSE(allclose(a, c));
  EXPECT_FALSE(allclose(a, Matrix(1, 3)));
}

TEST(OpsTest, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1.5f, 1.0f}};
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0f);
}

}  // namespace
}  // namespace trkx

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels/kernels.hpp"

namespace trkx {

Matrix matmul(const Matrix& a, const Matrix& b) {
  TRKX_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch "
                                           << a.shape_str() << " x "
                                           << b.shape_str());
  Matrix c = Matrix::uninit(a.rows(), b.cols());
  kernels::active().gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                         b.cols(), /*accumulate=*/false);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  TRKX_CHECK_MSG(a.cols() == b.cols(), "matmul_nt shape mismatch "
                                           << a.shape_str() << " x "
                                           << b.shape_str() << "^T");
  Matrix c = Matrix::uninit(a.rows(), b.rows());
  kernels::active().gemm_nt(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                            b.rows(), /*accumulate=*/false);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  TRKX_CHECK_MSG(a.rows() == b.rows(), "matmul_tn shape mismatch "
                                           << a.shape_str() << "^T x "
                                           << b.shape_str());
  Matrix c = Matrix::uninit(a.cols(), b.cols());
  kernels::active().gemm_tn(a.data(), b.data(), c.data(), a.cols(), a.rows(),
                            b.cols(), /*accumulate=*/false);
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix out = Matrix::uninit(a.cols(), a.rows());
  const std::size_t r = a.rows(), c = a.cols();
#pragma omp parallel for schedule(static) default(none) shared(out, a) \
    firstprivate(r, c)
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) out(j, i) = a(i, j);
  return out;
}

Matrix add(const Matrix& a, const Matrix& b) {
  TRKX_CHECK_MSG(a.same_shape(b), "add shape mismatch " << a.shape_str()
                                                        << " vs "
                                                        << b.shape_str());
  Matrix out = Matrix::uninit(a.rows(), a.cols());
  kernels::active().ew_add(a.data(), b.data(), out.data(), a.size());
  return out;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  TRKX_CHECK_MSG(a.same_shape(b), "sub shape mismatch " << a.shape_str()
                                                        << " vs "
                                                        << b.shape_str());
  Matrix out = Matrix::uninit(a.rows(), a.cols());
  kernels::active().ew_sub(a.data(), b.data(), out.data(), a.size());
  return out;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  TRKX_CHECK_MSG(a.same_shape(b), "hadamard shape mismatch "
                                      << a.shape_str() << " vs "
                                      << b.shape_str());
  Matrix out = Matrix::uninit(a.rows(), a.cols());
  kernels::active().ew_mul(a.data(), b.data(), out.data(), a.size());
  return out;
}

Matrix scale(const Matrix& a, float s) {
  Matrix out = Matrix::uninit(a.rows(), a.cols());
  kernels::active().ew_scale(a.data(), s, out.data(), a.size());
  return out;
}

void add_inplace(Matrix& a, const Matrix& b) {
  TRKX_CHECK(a.same_shape(b));
  kernels::active().ew_add_inplace(a.data(), b.data(), a.size());
}

Matrix colwise_sum(const Matrix& a) {
  Matrix out(1, a.cols(), 0.0f);
  kernels::active().colwise_sum(a.data(), out.data(), a.rows(), a.cols());
  return out;
}

Matrix concat_cols(const std::vector<const Matrix*>& blocks) {
  TRKX_CHECK(!blocks.empty());
  const std::size_t rows = blocks[0]->rows();
  std::size_t total_cols = 0;
  for (const Matrix* b : blocks) {
    TRKX_CHECK_MSG(b->rows() == rows, "concat_cols row mismatch");
    total_cols += b->cols();
  }
  Matrix out = Matrix::uninit(rows, total_cols);
#pragma omp parallel for schedule(static) default(none) shared(out, blocks) \
    firstprivate(rows, total_cols)
  for (std::size_t i = 0; i < rows; ++i) {
    float* orow = out.data() + i * total_cols;
    std::size_t off = 0;
    for (const Matrix* b : blocks) {
      std::memcpy(orow + off, b->data() + i * b->cols(),
                  b->cols() * sizeof(float));
      off += b->cols();
    }
  }
  return out;
}

Matrix concat_rows(const std::vector<const Matrix*>& blocks) {
  TRKX_CHECK(!blocks.empty());
  const std::size_t cols = blocks[0]->cols();
  std::size_t total_rows = 0;
  for (const Matrix* b : blocks) {
    TRKX_CHECK_MSG(b->cols() == cols, "concat_rows col mismatch");
    total_rows += b->rows();
  }
  Matrix out = Matrix::uninit(total_rows, cols);
  std::size_t off = 0;
  for (const Matrix* b : blocks) {
    std::memcpy(out.data() + off * cols, b->data(),
                b->size() * sizeof(float));
    off += b->rows();
  }
  return out;
}

Matrix slice_cols(const Matrix& a, std::size_t start, std::size_t len) {
  TRKX_CHECK(start + len <= a.cols());
  Matrix out = Matrix::uninit(a.rows(), len);
  const std::size_t r = a.rows(), c = a.cols();
#pragma omp parallel for schedule(static) default(none) shared(out, a) \
    firstprivate(r, c, start, len)
  for (std::size_t i = 0; i < r; ++i) {
    std::memcpy(out.data() + i * len, a.data() + i * c + start,
                len * sizeof(float));
  }
  return out;
}

Matrix slice_rows(const Matrix& a, std::size_t start, std::size_t len) {
  TRKX_CHECK(start + len <= a.rows());
  Matrix out = Matrix::uninit(len, a.cols());
  std::memcpy(out.data(), a.data() + start * a.cols(),
              len * a.cols() * sizeof(float));
  return out;
}

Matrix row_gather(const Matrix& x, const std::vector<std::uint32_t>& index) {
  // Validate before dispatching: exceptions may not cross the kernel's
  // internal OpenMP boundary.
  for (std::uint32_t idx : index) {
    TRKX_CHECK_MSG(idx < x.rows(),
                   "row_gather index " << idx << " out of range " << x.rows());
  }
  Matrix out = Matrix::uninit(index.size(), x.cols());
  kernels::active().row_gather(x.data(), index.data(), out.data(),
                               index.size(), x.cols(), /*accumulate=*/false);
  return out;
}

void row_scatter_add(Matrix& dst, const std::vector<std::uint32_t>& index,
                     const Matrix& src) {
  TRKX_CHECK(index.size() == src.rows());
  TRKX_CHECK(dst.cols() == src.cols());
  for (std::uint32_t idx : index) {
    TRKX_CHECK_MSG(idx < dst.rows(), "row_scatter_add index "
                                         << idx << " out of range "
                                         << dst.rows());
  }
  kernels::active().row_scatter_add(dst.data(), index.data(), src.data(),
                                    index.size(), dst.cols());
}

Matrix segment_sum(const Matrix& y, const std::vector<std::uint32_t>& index,
                   std::size_t num_segments) {
  Matrix out(num_segments, y.cols(), 0.0f);
  row_scatter_add(out, index, y);
  return out;
}

bool all_finite(const Matrix& a) {
  for (float v : a.flat())
    if (!std::isfinite(v)) return false;
  return true;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  TRKX_CHECK(a.same_shape(b));
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

bool allclose(const Matrix& a, const Matrix& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    const float tol = atol + rtol * std::max(std::fabs(pa[i]),
                                             std::fabs(pb[i]));
    if (diff > tol || std::isnan(diff)) return false;
  }
  return true;
}

}  // namespace trkx

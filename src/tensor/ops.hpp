#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace trkx {

/// Dense kernels used by the autograd layer and the GNN.
///
/// All kernels validate shapes with TRKX_CHECK and parallelise the outer
/// loop with OpenMP. They allocate their outputs (Matrix::uninit when the
/// kernel writes every element, zero-filled when it accumulates); in-place
/// variants are provided where backpropagation needs accumulation.

/// C = A · B
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A · Bᵀ
Matrix matmul_nt(const Matrix& a, const Matrix& b);
/// C = Aᵀ · B
Matrix matmul_tn(const Matrix& a, const Matrix& b);

Matrix transpose(const Matrix& a);

Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);
Matrix scale(const Matrix& a, float s);
/// a += b
void add_inplace(Matrix& a, const Matrix& b);

/// 1×c column sums (the gradient of a row broadcast).
Matrix colwise_sum(const Matrix& a);

/// Horizontally concatenate blocks: [A B C ...]. All must share rows().
Matrix concat_cols(const std::vector<const Matrix*>& blocks);
/// Vertically stack blocks. All must share cols().
Matrix concat_rows(const std::vector<const Matrix*>& blocks);
/// Columns [start, start+len) of a.
Matrix slice_cols(const Matrix& a, std::size_t start, std::size_t len);
/// Rows [start, start+len) of a.
Matrix slice_rows(const Matrix& a, std::size_t start, std::size_t len);

/// out[i, :] = x[index[i], :]. Every index must be < x.rows().
Matrix row_gather(const Matrix& x, const std::vector<std::uint32_t>& index);
/// dst[index[i], :] += src[i, :]. Every index must be < dst.rows().
void row_scatter_add(Matrix& dst, const std::vector<std::uint32_t>& index,
                     const Matrix& src);
/// out (num_segments × cols): out[index[i], :] += y[i, :].
/// This is the GNN aggregation primitive (REDUCTION in Algorithm 1).
Matrix segment_sum(const Matrix& y, const std::vector<std::uint32_t>& index,
                   std::size_t num_segments);

/// True iff every element is finite (no NaN or ±Inf). Used by the
/// TRKX_CHECK_NUMERICS debug mode in the tape and gradient sync.
bool all_finite(const Matrix& a);

/// max |a - b| over all elements; shapes must match.
float max_abs_diff(const Matrix& a, const Matrix& b);
bool allclose(const Matrix& a, const Matrix& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace trkx

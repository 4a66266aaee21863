#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace trkx {

/// Dense row-major float32 matrix.
///
/// This is the only dense tensor type in the library: GNN training on
/// graphs only ever needs rank-2 data (node features n×f, edge features
/// m×f, parameters f×f), so a dedicated 2-D type keeps kernels simple and
/// fast. Vectors are represented as 1×n or n×1 matrices.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Copies are one memcpy: the default-init allocator would otherwise
  // make the vector copy element by element.
  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_.size()) {
    copy_from(other);
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_.clear();  // a growing resize then copies nothing over
      data_.resize(other.data_.size());
      copy_from(other);
    }
    return *this;
  }
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Construct from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  /// A rows×cols matrix whose elements are left unwritten. Only for an
  /// output its producer overwrites in full (a kernel marked
  /// "overwritten", a copy, a gather); anything accumulated into takes
  /// the zero-filling constructor. ASan builds fill it with quiet NaN, so
  /// an element a producer forgets to write fails the bit-identity,
  /// oracle and TRKX_CHECK_NUMERICS tests of that CI leg.
  static Matrix uninit(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);
#if defined(__SANITIZE_ADDRESS__)
    m.fill(std::nanf(""));
#endif
    return m;
  }
  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0f);
  }
  static Matrix ones(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  static Matrix identity(std::size_t n);
  /// I.i.d. uniform in [lo, hi).
  static Matrix random_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                               float lo = 0.0f, float hi = 1.0f);
  /// I.i.d. normal(mean, stddev).
  static Matrix random_normal(std::size_t rows, std::size_t cols, Rng& rng,
                              float mean = 0.0f, float stddev = 1.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    TRKX_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    TRKX_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  /// Unchecked access for hot kernels.
  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> row(std::size_t r) {
    TRKX_CHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const {
    TRKX_CHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  void fill(float value);
  void resize(std::size_t rows, std::size_t cols, float fill = 0.0f);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Frobenius norm, max |x|, and elementwise sum — handy for tests.
  double frobenius_norm() const;
  float abs_max() const;
  double sum() const;

  /// True if all elements are finite (no NaN/Inf).
  bool all_finite() const;

  std::string shape_str() const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  /// std::allocator that default-initialises: a vector grown without a
  /// fill value leaves its floats unwritten instead of zeroing them.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  void copy_from(const Matrix& other) {
    if (!data_.empty())
      std::memcpy(data_.data(), other.data_.data(),
                  data_.size() * sizeof(float));
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace trkx

#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace trkx {

namespace {

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
/// Tensor memory policy, set once before main() in every binary that links
/// Matrix. ShaDow changes every tensor's shape at every step, and under
/// glibc's defaults the heap hands each step's freed buffers back to the
/// kernel for the next step to fault in again. Here blocks under the mmap
/// threshold come from the heap, and the heap keeps up to the trim
/// threshold of free memory, so a step reuses the pages the last one
/// freed. One arena, or a batch that a prefetch producer allocates and a
/// rank frees would stay resident in the producer's arena (DESIGN §6d).
/// These calls replace whatever the environment (GLIBC_TUNABLES,
/// MALLOC_ARENA_MAX, ...) set for the same three settings. ASan and TSan
/// replace malloc and ignore mallopt.
constexpr int kMmapThresholdBytes = 32 << 20;  // glibc's 64-bit maximum
constexpr int kTrimThresholdBytes = 256 << 20;

[[maybe_unused]] const bool kResidentTensorMemory = [] {
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
  return true;
}();
#endif

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    TRKX_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                              float lo, float hi) {
  Matrix m = uninit(rows, cols);
  for (float& x : m.data_) x = rng.uniform(lo, hi);
  return m;
}

Matrix Matrix::random_normal(std::size_t rows, std::size_t cols, Rng& rng,
                             float mean, float stddev) {
  Matrix m = uninit(rows, cols);
  for (float& x : m.data_) x = static_cast<float>(rng.normal(mean, stddev));
  return m;
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols, float fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

float Matrix::abs_max() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Matrix::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

bool Matrix::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](float x) { return std::isfinite(x); });
}

std::string Matrix::shape_str() const {
  std::ostringstream os;
  os << "[" << rows_ << " x " << cols_ << "]";
  return os.str();
}

}  // namespace trkx

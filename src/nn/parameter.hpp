#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/codec.hpp"

namespace trkx {

/// One trainable matrix with its accumulated gradient.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;  // same shape as value; zeroed by ParameterStore::zero_grad

  std::size_t size() const { return value.size(); }
};

/// Owns all trainable parameters of a model.
///
/// Parameters live in a deque so pointers remain stable as layers register
/// themselves. The store is also the unit of optimisation (optimizers walk
/// it) and of communication: flatten_grads()/unflatten_grads() give the
/// single contiguous buffer used by the paper's coalesced all-reduce.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;
  // Moves keep registered Parameter* valid (deque storage is transferred).
  ParameterStore(ParameterStore&&) = default;
  ParameterStore& operator=(ParameterStore&&) = default;

  /// Create a zero-initialised parameter; name must be unique.
  Parameter& create(const std::string& name, std::size_t rows,
                    std::size_t cols);

  Parameter* find(const std::string& name);
  std::size_t count() const { return params_.size(); }
  /// Total number of floats across all parameter values.
  std::size_t total_size() const;

  std::deque<Parameter>& params() { return params_; }
  const std::deque<Parameter>& params() const { return params_; }

  void zero_grad();

  /// Copy every gradient into one contiguous buffer (deque order).
  std::vector<float> flatten_grads() const;
  /// Inverse of flatten_grads: scatter `flat` back into per-param grads.
  void unflatten_grads(const std::vector<float>& flat);
  std::vector<float> flatten_values() const;
  void unflatten_values(const std::vector<float>& flat);

  /// Copy values (not grads) from another store with identical layout.
  void copy_values_from(const ParameterStore& other);

  /// Binary serialization: (count, then per-param name/rows/cols/data).
  /// read_values() checks it against this store and returns the values
  /// to unflatten; a mismatch throws CheckpointError.
  void save(ByteWriter& w) const;
  std::vector<float> read_values(ByteReader& r) const;
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::deque<Parameter> params_;
};

/// Weight initialisers. fan_in/fan_out are taken from the matrix shape.
void init_kaiming_uniform(Matrix& w, Rng& rng);
void init_xavier_uniform(Matrix& w, Rng& rng);

}  // namespace trkx

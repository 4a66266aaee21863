#include "nn/parameter.hpp"

#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace trkx {

Parameter& ParameterStore::create(const std::string& name, std::size_t rows,
                                  std::size_t cols) {
  TRKX_CHECK_MSG(find(name) == nullptr, "duplicate parameter name: " << name);
  params_.push_back(Parameter{name, Matrix(rows, cols, 0.0f),
                              Matrix(rows, cols, 0.0f)});
  return params_.back();
}

Parameter* ParameterStore::find(const std::string& name) {
  for (auto& p : params_)
    if (p.name == name) return &p;
  return nullptr;
}

std::size_t ParameterStore::total_size() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p.size();
  return n;
}

void ParameterStore::zero_grad() {
  for (auto& p : params_) p.grad.fill(0.0f);
}

std::vector<float> ParameterStore::flatten_grads() const {
  std::vector<float> flat;
  flat.reserve(total_size());
  for (const auto& p : params_)
    flat.insert(flat.end(), p.grad.data(), p.grad.data() + p.grad.size());
  return flat;
}

void ParameterStore::unflatten_grads(const std::vector<float>& flat) {
  TRKX_CHECK(flat.size() == total_size());
  std::size_t off = 0;
  for (auto& p : params_) {
    std::memcpy(p.grad.data(), flat.data() + off, p.size() * sizeof(float));
    off += p.size();
  }
}

std::vector<float> ParameterStore::flatten_values() const {
  std::vector<float> flat;
  flat.reserve(total_size());
  for (const auto& p : params_)
    flat.insert(flat.end(), p.value.data(), p.value.data() + p.value.size());
  return flat;
}

void ParameterStore::unflatten_values(const std::vector<float>& flat) {
  TRKX_CHECK(flat.size() == total_size());
  std::size_t off = 0;
  for (auto& p : params_) {
    std::memcpy(p.value.data(), flat.data() + off, p.size() * sizeof(float));
    off += p.size();
  }
}

void ParameterStore::copy_values_from(const ParameterStore& other) {
  TRKX_CHECK(params_.size() == other.params_.size());
  auto it = other.params_.begin();
  for (auto& p : params_) {
    TRKX_CHECK(p.value.same_shape(it->value));
    p.value = it->value;
    ++it;
  }
}

void ParameterStore::save(ByteWriter& w) const {
  w.put<std::uint64_t>(params_.size());
  for (const auto& p : params_) {
    w.put_vector(p.name);
    w.put<std::uint64_t>(p.value.rows());
    w.put<std::uint64_t>(p.value.cols());
    w.put_array(p.value.data(), p.value.size());
  }
}

std::vector<float> ParameterStore::read_values(ByteReader& r) const {
  const auto n = r.get<std::uint64_t>();
  if (n != params_.size())
    r.fail("parameter count mismatch: file has " + std::to_string(n));
  std::vector<float> values(total_size());
  float* out = values.data();
  for (const auto& p : params_) {
    if (r.get_vector<char>() != std::vector<char>(p.name.begin(), p.name.end()))
      r.fail("parameter name mismatch at " + p.name);
    const auto rows = r.get<std::uint64_t>();
    const auto cols = r.get<std::uint64_t>();
    if (rows != p.value.rows() || cols != p.value.cols())
      r.fail("parameter '" + p.name + "' shape mismatch");
    r.get_array(out, p.size());
    out += p.size();
  }
  return values;
}

void ParameterStore::save(std::ostream& os) const {
  ByteWriter w;
  save(w);
  w.write_to(os, CodecError::kCheckpoint, "parameter store");
}

void ParameterStore::load(std::istream& is) {
  ByteReader r(is, CodecError::kCheckpoint, "parameter store");
  unflatten_values(read_values(r));
}

void init_kaiming_uniform(Matrix& w, Rng& rng) {
  // fan_in = rows for an (in x out) weight used as x·W.
  const float bound =  // NOLINT(trkx-div-guard): max(1, rows) >= 1
      std::sqrt(6.0f / static_cast<float>(std::max<std::size_t>(1, w.rows())));
  for (float& x : w.flat()) x = rng.uniform(-bound, bound);
}

void init_xavier_uniform(Matrix& w, Rng& rng) {
  const float bound = std::sqrt(
      6.0f / static_cast<float>(std::max<std::size_t>(1, w.rows() + w.cols())));
  for (float& x : w.flat()) x = rng.uniform(-bound, bound);
}

}  // namespace trkx

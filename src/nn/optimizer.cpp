#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>

#include "tensor/kernels/kernels.hpp"
#include "util/error.hpp"

namespace trkx {

Adam::Adam(ParameterStore& store, const AdamOptions& options)
    : store_(&store), options_(options) {
  for (const auto& p : store.params()) {
    m_.emplace_back(p.value.rows(), p.value.cols(), 0.0f);
    v_.emplace_back(p.value.rows(), p.value.cols(), 0.0f);
  }
}

double Adam::clip_grad_norm(double max_norm) {
  TRKX_CHECK(max_norm > 0.0);
  double sq = 0.0;
  for (const auto& p : store_->params())
    for (float g : p.grad.flat()) sq += static_cast<double>(g) * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const float s = static_cast<float>(max_norm / (norm + 1e-12));
    for (auto& p : store_->params())
      for (float& g : p.grad.flat()) g *= s;
  }
  return norm;
}

namespace {
// Versioned Adam-state header so a checkpoint written by a newer,
// incompatible layout is rejected instead of silently misread.
constexpr std::uint32_t kAdamStateMagic = 0x4d414441;  // "ADAM"
constexpr std::uint32_t kAdamStateVersion = 1;
}  // namespace

void Adam::save_state(ByteWriter& w) const {
  w.put(kAdamStateMagic);
  w.put(kAdamStateVersion);
  w.put<std::uint64_t>(t_);
  w.put<std::uint64_t>(m_.size());
  for (const auto* moments : {&m_, &v_})
    for (const Matrix& m : *moments) w.put_array(m.data(), m.size());
}

void Adam::load_state(ByteReader& r) {
  r.get_header(kAdamStateMagic, kAdamStateVersion, "Adam state");
  const auto t = r.get<std::uint64_t>();
  if (r.get<std::uint64_t>() != m_.size()) r.fail("Adam state layout mismatch");
  std::vector<Matrix> m = m_, v = v_;  // staged: commit only when all read
  for (auto* moments : {&m, &v})
    for (Matrix& x : *moments) r.get_array(x.data(), x.size());
  t_ = static_cast<std::size_t>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::save_state(std::ostream& os) const {
  ByteWriter w;
  save_state(w);
  w.write_to(os, CodecError::kCheckpoint, "Adam state");
}

void Adam::load_state(std::istream& is) {
  ByteReader r(is, CodecError::kCheckpoint, "Adam state");
  load_state(r);
}

void Adam::step() {
  ++t_;
  const float b1 = options_.beta1, b2 = options_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  TRKX_CHECK(bias1 > 0.0f && bias2 > 0.0f);  // betas < 1, t_ >= 1
  const kernels::AdamStep step{options_.lr,           b1,
                               b2,                    options_.eps,
                               options_.weight_decay, 1.0f / bias1,
                               1.0f / bias2};
  std::size_t i = 0;
  for (auto& p : store_->params()) {
    kernels::active().adam_update(p.value.data(), p.grad.data(),
                                  m_[i].data(), v_[i].data(), p.size(), step);
    ++i;
  }
}

}  // namespace trkx

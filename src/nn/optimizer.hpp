#pragma once

#include <vector>

#include "nn/parameter.hpp"

namespace trkx {

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam over a ParameterStore — the one optimizer every trainer uses.
class Adam {
 public:
  Adam(ParameterStore& store, const AdamOptions& options);

  /// Apply one update from the currently accumulated gradients.
  void step();
  void zero_grad() { store_->zero_grad(); }
  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);
  std::size_t steps_taken() const { return t_; }

  /// Checkpoint the optimizer state (step counter + both moments) so a
  /// training run can resume exactly. The parameter values themselves are
  /// saved separately via ParameterStore::save.
  void save_state(ByteWriter& w) const;
  void load_state(ByteReader& r);
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  ParameterStore* store_;
  AdamOptions options_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;  // first moment per parameter
  std::vector<Matrix> v_;  // second moment per parameter
};

}  // namespace trkx

#pragma once

#include <vector>

#include "nn/parameter.hpp"

namespace trkx {

/// Base optimizer interface over a ParameterStore.
class Optimizer {
 public:
  explicit Optimizer(ParameterStore& store) : store_(&store) {}
  virtual ~Optimizer() = default;

  /// Apply one update from the currently accumulated gradients.
  virtual void step() = 0;
  void zero_grad() { store_->zero_grad(); }

  /// Current learning rate (mutable so schedulers can drive it).
  virtual float learning_rate() const = 0;
  virtual void set_learning_rate(float lr) = 0;

  /// Scale all gradients (used to average DDP gradient sums by 1/P).
  void scale_grads(float s);
  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

 protected:
  ParameterStore* store_;
};

struct SgdOptions {
  float lr = 1e-2f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd : public Optimizer {
 public:
  Sgd(ParameterStore& store, const SgdOptions& options);
  void step() override;
  float learning_rate() const override { return options_.lr; }
  void set_learning_rate(float lr) override { options_.lr = lr; }

 private:
  SgdOptions options_;
  std::vector<Matrix> velocity_;  // one per parameter; lazily initialised
};

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

class Adam : public Optimizer {
 public:
  Adam(ParameterStore& store, const AdamOptions& options);
  void step() override;
  std::size_t steps_taken() const { return t_; }
  float learning_rate() const override { return options_.lr; }
  void set_learning_rate(float lr) override { options_.lr = lr; }

  /// Checkpoint the optimizer state (step counter + both moments) so a
  /// training run can resume exactly. The parameter values themselves are
  /// saved separately via ParameterStore::save.
  void save_state(ByteWriter& w) const;
  void load_state(ByteReader& r);
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  AdamOptions options_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;  // first moment per parameter
  std::vector<Matrix> v_;  // second moment per parameter
};

}  // namespace trkx

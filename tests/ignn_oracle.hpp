#pragma once

// One IGNN training step captured tensor by tensor, and the bound two
// such steps are compared under. Shared by the split-forward oracle
// (gnn_test) and the scalar-vs-AVX2 oracle (kernels_test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.hpp"
#include "nn/parameter.hpp"

namespace trkx::oracle {

struct IgnnStep {
  std::vector<float> logits;
  float loss = 0.0f;
  std::vector<std::pair<std::string, std::vector<float>>> grads;  // store order
};

/// Forward + backward of `forward(ctx)`'s logits under BCE against
/// `labels`, with every gradient in `store` zeroed first.
template <typename Forward>
IgnnStep run_step(ParameterStore& store, const std::vector<float>& labels,
                  Forward&& forward) {
  store.zero_grad();
  TapeContext ctx;
  Var logits = forward(ctx);
  Var loss = ctx.tape().bce_with_logits(logits, labels);
  ctx.backward(loss);
  IgnnStep out;
  const Matrix& z = logits.value();
  out.logits.assign(z.data(), z.data() + z.size());
  out.loss = loss.value()(0, 0);
  for (const Parameter& p : store.params()) {
    const float* g = p.grad.data();
    out.grads.emplace_back(p.name, std::vector<float>(g, g + p.grad.size()));
  }
  return out;
}

/// max |ref - got| relative to max |ref| over one tensor; +inf when either
/// holds a value that is not finite, so a NaN step never passes.
inline double max_rel_diff(const std::vector<float>& ref,
                           const std::vector<float>& got) {
  double diff = 0.0, scale = 1e-30;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!std::isfinite(ref[i]) || !std::isfinite(got[i]))
      return std::numeric_limits<double>::infinity();
    diff = std::max(diff, static_cast<double>(std::fabs(ref[i] - got[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(ref[i])));
  }
  return diff / scale;
}

/// Relative distance of `got` from `ref` per compared tensor: logits,
/// loss, then every parameter gradient.
inline std::vector<double> step_diffs(const IgnnStep& ref,
                                      const IgnnStep& got) {
  std::vector<double> d{max_rel_diff(ref.logits, got.logits),
                        max_rel_diff({ref.loss}, {got.loss})};
  for (std::size_t i = 0; i < ref.grads.size(); ++i)
    d.push_back(max_rel_diff(ref.grads[i].second, got.grads[i].second));
  return d;
}

/// Per-tensor bound for `diffs` (from step_diffs against `ref`): 1e-3 of
/// the tensor's max, or 4× the reference's own relative change when
/// `probe(f)` reruns it with its node and edge inputs scaled by f = 1 ± 3e-7,
/// where that is larger, but never above 5e-2.
///
/// Away from relu kinks two sum orders agree to rounding. When a relu
/// input sits within rounding of zero, a few ULPs move the reference
/// itself by up to a few percent and no sum order is the right one: that
/// data tests the kink, not the code. A probe in one direction alone can
/// miss the kink. The ceiling sits above the worst kink measured (3.5e-2
/// over seeds 30-41), so no seed lets a tensor be off by more; a fault
/// that leaves an output unwritten or wrong is O(1). The probe runs only
/// when some tensor exceeds 1e-3.
template <typename Probe>
std::vector<double> kink_bounds(const IgnnStep& ref,
                                const std::vector<double>& diffs,
                                Probe&& probe) {
  std::vector<double> bounds(diffs.size(), 1e-3);
  if (*std::max_element(diffs.begin(), diffs.end()) <= 1e-3) return bounds;
  for (float f : {1.0f + 3e-7f, 1.0f - 3e-7f}) {
    const std::vector<double> moved = step_diffs(ref, probe(f));
    for (std::size_t i = 0; i < bounds.size(); ++i)
      bounds[i] = std::max(bounds[i], std::min(4.0 * moved[i], 5e-2));
  }
  return bounds;
}

/// Expects `got` to match the reference step `ref` on every tensor under
/// kink_bounds.
template <typename Probe>
void expect_step_matches(const IgnnStep& ref, const IgnnStep& got,
                         Probe&& probe) {
  ASSERT_EQ(ref.logits.size(), got.logits.size());
  ASSERT_EQ(ref.grads.size(), got.grads.size());
  for (std::size_t i = 0; i < ref.grads.size(); ++i) {
    ASSERT_EQ(ref.grads[i].first, got.grads[i].first);
    ASSERT_EQ(ref.grads[i].second.size(), got.grads[i].second.size());
  }
  const std::vector<double> diffs = step_diffs(ref, got);
  const std::vector<double> bounds = kink_bounds(ref, diffs, probe);
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    EXPECT_LE(diffs[i], bounds[i])
        << (i == 0 ? "logits" : i == 1 ? "loss" : ref.grads[i - 2].first);
  }
}

}  // namespace trkx::oracle

#include "autograd/gradcheck.hpp"

#include <cmath>

#include "util/error.hpp"

namespace trkx {

GradcheckResult gradcheck(
    const std::function<double(const std::vector<Matrix>& inputs,
                               std::vector<Matrix>* grads)>& scalar_fn,
    std::vector<Matrix> inputs, float eps, float atol, float rtol) {
  std::vector<Matrix> analytic;
  scalar_fn(inputs, &analytic);
  TRKX_CHECK_MSG(analytic.size() == inputs.size(),
                 "scalar_fn must return one gradient per input");

  GradcheckResult result;
  result.passed = true;
  for (std::size_t which = 0; which < inputs.size(); ++which) {
    Matrix& x = inputs[which];
    TRKX_CHECK(analytic[which].same_shape(x));
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float orig = x.data()[i];
      x.data()[i] = orig + eps;
      const double fp = scalar_fn(inputs, nullptr);
      x.data()[i] = orig - eps;
      const double fm = scalar_fn(inputs, nullptr);
      x.data()[i] = orig;
      const float numeric =
          static_cast<float>((fp - fm) / (2.0 * static_cast<double>(eps)));
      const float a = analytic[which].data()[i];
      const float abs_err = std::fabs(a - numeric);
      const float rel_err =
          abs_err / std::max(1e-8f, std::fabs(numeric));
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, rel_err);
      // Written so a NaN error fails: every comparison with NaN is false.
      if (!(abs_err <= atol + rtol * std::fabs(numeric))) result.passed = false;
    }
  }
  return result;
}

}  // namespace trkx

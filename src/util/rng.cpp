#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace trkx {

double Rng::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  // Box–Muller; u must be in (0, 1].
  double u = 1.0 - uniform();
  double v = uniform();
  // NOLINT(trkx-exp-log): u = 1 - uniform() ∈ (0, 1], so log(u) is finite
  double r = std::sqrt(-2.0 * std::log(u));
  double theta = 2.0 * M_PI * v;
  spare_ = r * std::sin(theta);
  have_spare_ = true;
  return r * std::cos(theta);
}

int Rng::poisson(double lambda) {
  TRKX_CHECK(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double p = 1.0;
    int k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // detector noise model where lambda is O(10^2..10^4).
  double x = normal(lambda, std::sqrt(lambda));
  return x < 0.0 ? 0 : static_cast<int>(x + 0.5);
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  std::vector<std::uint32_t> out;
  if (k >= n) {
    out.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  out.reserve(k);
  // Floyd's algorithm: k draws. The chosen set is exactly `out`, so
  // membership is a scan of it; for the small k of every caller (fanouts,
  // degrees) the O(k²) scan costs less than a hash set's allocations.
  for (std::uint32_t j = n - k; j < n; ++j) {
    // NOLINT(trkx-narrow-cast): uniform_index(j + 1) <= j, already a uint32
    std::uint32_t t = static_cast<std::uint32_t>(uniform_index(j + 1));
    out.push_back(std::find(out.begin(), out.end(), t) == out.end() ? t : j);
  }
  return out;
}

}  // namespace trkx

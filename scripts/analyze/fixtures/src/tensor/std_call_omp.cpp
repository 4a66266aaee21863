// A std::-qualified call names the standard library, never a project
// function that shares its short name. The parallel region below calls
// std::tanh next to a throwing project Tape::tanh and must not flag
// trkx-throw-omp.

namespace trkx {

class Tape {
 public:
  float tanh(float x);
};

float Tape::tanh(float x) {
  TRKX_CHECK(x < 1e30f);
  return x;
}

void tanh_rows(const float* x, float* y, std::size_t n) {
#pragma omp parallel for default(none) shared(x, y) firstprivate(n)
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

}  // namespace trkx

// NOLINT-suppression proofs for the cross-TU passes: every violation
// below carries a NOLINT(<rule>): reason, so this file must contribute
// ZERO findings to the selftest — it is the "suppression works" half of
// the fixture corpus for lock-order, throw-boundary, and env-registry.
#include "util/fixture_locks.hpp"

namespace trkx {

void suppressed_inversion() {
  LockGuard pool(g_pool_mutex);
  // NOLINT(trkx-lock-order): fixture proof that site suppression works
  LockGuard stats(g_stats_mutex);
  (void)stats;
  (void)pool;
}

void suppressed_blocking(std::ostream& os) {
  LockGuard stats(g_stats_mutex);
  // NOLINT(trkx-lock-blocking): flush under lock is deliberate here
  os.flush();
  (void)stats;
}

void suppressed_region(std::vector<float>& out, std::size_t n) {
  // NOLINT(trkx-throw-omp): fixture proof that region suppression works
#pragma omp parallel for default(none) shared(out, n)
  for (std::size_t i = 0; i < n; ++i) {
    TRKX_CHECK(i < out.size());
    out[i] = 0.0f;
  }
}

void suppressed_thread() {
  std::vector<std::thread> workers;
  // NOLINT(trkx-throw-thread): fixture proof of launch-site suppression
  workers.emplace_back([] { risky_entry(); });
  for (auto& w : workers) w.join();
}

const char* suppressed_env() {
  // NOLINT(trkx-env-direct): fixture proof of getenv-site suppression
  return std::getenv("TRKX_FIXTURE_MODE");
}

bool suppressed_unregistered() {
  // NOLINT(trkx-env-unregistered): fixture proof of accessor suppression
  return env::get_bool("TRKX_FIXTURE_BOGUS");
}

}  // namespace trkx

// Seeded env-registry fixtures: a direct getenv of a TRKX_* knob (must
// route through trkx::env) and an accessor naming a knob the registry
// does not declare, next to a clean registered accessor call.

namespace trkx {

const char* direct_read() {
  return std::getenv("TRKX_FIXTURE_MODE");  // seeded: trkx-env-direct
}

bool unregistered_read() {
  return env::get_bool("TRKX_FIXTURE_BOGUS");  // seeded: trkx-env-unregistered
}

std::string registered_read() {
  return env::get_string("TRKX_FIXTURE_MODE");
}

}  // namespace trkx

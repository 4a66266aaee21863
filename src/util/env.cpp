#include "util/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "util/error.hpp"

namespace trkx::env {

namespace {

/// THE registry. Sorted by name; scripts/check_env_docs.py validates the
/// README knob table against exactly this list (via dump_registry_json),
/// and the trkx-env-registry analyzer pass parses these entries — so a
/// new knob lands as: (1) a row here, (2) an accessor call site, (3) a
/// regenerated README table. Keep the doc strings one line.
constexpr Knob kKnobs[] = {
    {"TRKX_CHECK_NUMERICS", "0",
     "Enable forward/backward finiteness checks through the autograd tape "
     "(debug mode)"},
    {"TRKX_FAULTS", "",
     "Arm deterministic fault injection: `;`-separated "
     "site:kind[:key=value...] clauses"},
    {"TRKX_GIT_SHA", "",
     "Override the compile-time git SHA stamped into RunManifest "
     "provenance"},
    {"TRKX_METRICS", "",
     "Write the metrics-registry JSON to this path at exit"},
    {"TRKX_SIMD", "auto",
     "Kernel dispatch table: auto (cpuid: avx512, avx2 or scalar), avx2, "
     "or scalar"},
    {"TRKX_TIMESERIES", "",
     "Start the metrics snapshotter and append time-series JSONL to this "
     "path"},
    {"TRKX_TRACE", "",
     "Start the span tracer and write Chrome-trace JSON to this path at "
     "exit"},
};

const Knob* find(const std::string& name) {
  for (const Knob& k : kKnobs) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

const Knob& require(const std::string& name) {
  const Knob* k = find(name);
  TRKX_CHECK_MSG(k != nullptr,
                 "env knob '" << name << "' is not in the trkx::env "
                 "registry — add it to src/util/env.cpp");
  return *k;
}

/// Effective string value: the environment wins when set non-empty,
/// otherwise the registry default.
std::string effective(const std::string& name) {
  const Knob& k = require(name);
  // The one legitimate direct read: every other TU goes through these
  // accessors (enforced by the trkx-env-registry analyzer pass).
  const char* v = std::getenv(k.name);
  if (v != nullptr && *v != '\0') return v;
  return k.def;
}

std::string json_escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out.push_back('\\');
    out.push_back(*p);
  }
  return out;
}

}  // namespace

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> all(std::begin(kKnobs), std::end(kKnobs));
  return all;
}

bool is_registered(const std::string& name) { return find(name) != nullptr; }

const char* raw(const std::string& name) {
  return std::getenv(require(name).name);
}

bool is_set(const std::string& name) {
  const char* v = raw(name);
  return v != nullptr && *v != '\0';
}

std::string get_string(const std::string& name) { return effective(name); }

bool get_bool(const std::string& name) {
  const std::string v = effective(name);
  if (v.empty()) return false;
  return v != "0" && v != "false" && v != "off" && v != "no";
}

void dump_registry_json(std::ostream& os) {
  os << "[\n";
  for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
    const Knob& k = kKnobs[i];
    os << "  {\"name\": \"" << json_escape(k.name) << "\", \"default\": \""
       << json_escape(k.def) << "\", \"doc\": \"" << json_escape(k.doc)
       << "\"}" << (i + 1 < std::size(kKnobs) ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace trkx::env

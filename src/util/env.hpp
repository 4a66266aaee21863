#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

/// Central registry of every TRKX_* runtime environment knob.
///
/// The scattered `std::getenv("TRKX_...")` call sites grew one per PR —
/// tracing, SIMD dispatch, fault injection — until no single
/// place could answer "what knobs exist, what do they default to, and
/// where are they documented?". All runtime knobs now route through
/// `trkx::env::get_*`, which validates the name against the static
/// registry below (an unregistered name is a programming error and
/// throws), and the registry itself is machine-readable:
///
///   * `dump_registry_json()` feeds the trkx-env-registry analyzer pass
///     and `scripts/check_env_docs.py`, which validates the README's
///     knob table against this table — docs cannot drift from code.
///   * The trkx-analyze `env-registry` pass rejects any direct
///     `getenv("TRKX_*")` outside env.cpp and any accessor call naming
///     a knob this table does not declare.
///
/// Values are read live from the process environment on every call (no
/// caching here): several knobs are re-read intentionally (tests toggle
/// TRKX_SIMD between ctest laps), and callers that want
/// read-once-at-startup semantics keep their own `static` (they always
/// did).
namespace trkx::env {

/// One registered knob. `def` is the documented default *as a string*
/// (what the typed accessors fall back to when the variable is unset or
/// empty); `doc` is the one-line description the README table carries.
struct Knob {
  const char* name;
  const char* def;
  const char* doc;
};

/// Every registered TRKX_* knob, sorted by name.
const std::vector<Knob>& knobs();

/// True iff `name` is in the registry.
bool is_registered(const std::string& name);

/// Raw environment value, or nullptr when unset. Throws trkx::Error if
/// `name` is not registered — new knobs must be added to the registry
/// (src/util/env.cpp) first.
const char* raw(const std::string& name);

/// True when the variable is set to a non-empty value.
bool is_set(const std::string& name);

/// String value; unset/empty falls back to the registry default.
std::string get_string(const std::string& name);

/// Boolean value: "0", "false", "off", "no" (case-sensitive) are false,
/// any other non-empty value is true; unset/empty falls back to the
/// registry default.
bool get_bool(const std::string& name);

/// Dump the registry as a JSON array of {"name", "default", "doc"}
/// objects (sorted by name) — the machine-readable side consumed by the
/// analyzer and the README-table validator.
void dump_registry_json(std::ostream& os);

}  // namespace trkx::env

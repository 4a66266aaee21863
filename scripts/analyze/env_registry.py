"""env-registry pass: every TRKX_* knob goes through trkx::env.

Phase 2 of the cross-TU analyzer (see facts.py), though this one needs
no call graph — its cross-TU fact is the knob registry itself: the
``kKnobs`` table in src/util/env.cpp is the single source of truth for
which TRKX_* environment variables exist, their defaults, and their
one-line docs (scripts/check_env_docs.py validates the README table
against the same rows).

    trkx-env-direct        a direct ``getenv`` naming a TRKX_* variable
                           anywhere outside src/util/env.cpp. Direct
                           reads bypass registration, defaulting, and
                           the documentation contract — route through
                           trkx::env::get_* / is_set instead.
    trkx-env-unregistered  a trkx::env accessor call naming a knob the
                           registry does not declare (it would throw
                           trkx::Error at runtime; the analyzer catches
                           it at review time).

The registry is parsed from the raw (comment-preserving) lines of
src/util/env.cpp: one ``{"TRKX_NAME", ...`` row per knob. If the
registry file is absent from the analyzed tree the registered set is
empty and every accessor call flags — a loud failure beats a silent
pass.
"""

import re

from .common import Finding

RULES = {
    "trkx-env-direct": "direct getenv of a TRKX_* knob outside the "
                       "trkx::env registry (src/util/env.cpp)",
    "trkx-env-unregistered": "trkx::env accessor names a knob missing "
                             "from the kKnobs registry table",
}

REGISTRY_FILE = "src/util/env.cpp"
KNOB_ROW = re.compile(r'\{\s*"(TRKX_\w+)"')
GETENV = re.compile(r"(?<![\w:])(?:std::)?getenv\s*\(")
ACCESSOR = re.compile(
    r"\benv\s*::\s*(?:raw|is_set|is_registered|get_string|get_bool)"
    r"\s*\(\s*\"(TRKX_\w+)\"")
TRKX_LITERAL = re.compile(r'"(TRKX_\w+)"')


def _registered(tree):
    knobs = set()
    for rel in tree.rel_paths():
        if rel != REGISTRY_FILE:
            continue
        for line in tree.file(rel).raw:
            m = KNOB_ROW.search(line)
            if m:
                knobs.add(m.group(1))
    return knobs


def run(tree):
    knobs = _registered(tree)
    findings = []
    for sf in tree.files():
        if sf.rel == REGISTRY_FILE:
            continue
        for li, code in enumerate(sf.code):
            if GETENV.search(code) and TRKX_LITERAL.search(sf.raw[li]):
                if not sf.has_nolint(li, "trkx-env-direct"):
                    name = TRKX_LITERAL.search(sf.raw[li]).group(1)
                    findings.append(Finding(
                        sf.rel, li + 1, "trkx-env-direct",
                        f"direct getenv(\"{name}\") bypasses the trkx::env "
                        "registry; use trkx::env::get_* / is_set"))
                continue  # don't double-flag the same line as unregistered
            # Accessor calls: the literal lives in raw (code blanks
            # string contents), the call shape in either.
            for m in ACCESSOR.finditer(sf.raw[li]):
                name = m.group(1)
                if name in knobs:
                    continue
                if sf.has_nolint(li, "trkx-env-unregistered"):
                    continue
                findings.append(Finding(
                    sf.rel, li + 1, "trkx-env-unregistered",
                    f"knob \"{name}\" is not declared in the kKnobs table "
                    f"({REGISTRY_FILE}); the accessor throws at runtime — "
                    "register the knob (name, default, doc) first"))
    return findings

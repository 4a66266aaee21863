#!/usr/bin/env python3
"""Validate a unified bench JSON artifact (bench/bench_json.hpp).

Usage:
    check_bench_json.py BENCH.json [--bench NAME]
                        [--require-metrics a,b,c] [--min-series N]
                        [--require-params a,b]
    check_bench_json.py --selftest

Expected shape (schema v2, the only one):

    {"schema": "trkx-bench-v2",
     "bench": "<name>",
     "manifest": {"schema": "trkx-manifest-v1", "git_sha": "...",
                  "tool": "...", "hardware_threads": N, ...},
     "series": [{"name": "<series>",
                 "params": {"<key>": "<string value>", ...},
                 "metrics": {"<key>": <number or null>, ...}}, ...]}

Every series must carry a non-empty name, params must map strings to
strings, and metrics must map strings to numbers (null marks a non-finite
measurement). Every artifact must carry a well-formed manifest block.
Optional flags pin the bench name, require metric/param keys on every
series, and set a minimum series count. --selftest validates the embedded
golden fixture and known-bad mutations of it, and exits non-zero if the
validator's verdict on any of them changes. Exits 0 on success, 1 with one
message per violation otherwise.
"""

import argparse
import copy
import json
import sys

SCHEMA = "trkx-bench-v2"
MANIFEST_SCHEMA = "trkx-manifest-v1"

# Golden fixture for --selftest: one canonical artifact; the selftest
# mutates it in ways that must each produce at least one error.
GOLDEN = {
    "schema": "trkx-bench-v2",
    "bench": "sparse",
    "manifest": {
        "schema": "trkx-manifest-v1",
        "tool": "sparse",
        "git_sha": "0123abcd4567",
        "build_type": "Release",
        "compiler": "12.2.0",
        "hostname": "ci",
        "hardware_threads": 1,
        "omp_max_threads": 1,
        "tracing_compiled": 1,
        "unix_time_s": 1786000000,
        "config_fingerprint": "9a1b2c3d4e5f",
    },
    "series": [
        {
            "name": "BM_SampleRows/4096",
            "params": {"benchmark": "BM_SampleRows/4096"},
            "metrics": {"real_time_ms_median": 1.25, "bad_sample": None},
        }
    ],
}


def validate(doc, bench="", require_metrics=(), require_params=(),
             min_series=1):
    """Return the list of violations for one parsed artifact."""
    errors = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]

    schema = doc.get("schema")
    if schema != SCHEMA:
        errors.append(f'"schema" is {schema!r}, expected {SCHEMA!r}')

    name = doc.get("bench")
    if not isinstance(name, str) or not name:
        errors.append('"bench" must be a non-empty string')
    elif bench and name != bench:
        errors.append(f'"bench" is {name!r}, expected {bench!r}')

    errors.extend(validate_manifest(doc.get("manifest")))

    series = doc.get("series")
    if not isinstance(series, list):
        errors.append('"series" must be a list')
        series = []
    if len(series) < min_series:
        errors.append(
            f"expected at least {min_series} series, got {len(series)}"
        )

    for i, s in enumerate(series):
        where = f"series[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{where} is not an object")
            continue
        sname = s.get("name")
        if not isinstance(sname, str) or not sname:
            errors.append(f'{where}: "name" must be a non-empty string')
        else:
            where = f"series[{i}] ({sname})"
        params = s.get("params")
        if not isinstance(params, dict):
            errors.append(f'{where}: "params" must be an object')
            params = {}
        for k, v in params.items():
            if not isinstance(v, str):
                errors.append(f"{where}: param {k!r} is not a string")
        metrics = s.get("metrics")
        if not isinstance(metrics, dict):
            errors.append(f'{where}: "metrics" must be an object')
            metrics = {}
        for k, v in metrics.items():
            if not (v is None or isinstance(v, (int, float))):
                errors.append(f"{where}: metric {k!r} is not a number")
        for k in require_metrics:
            if k not in metrics:
                errors.append(f"{where}: missing required metric {k!r}")
        for k in require_params:
            if k not in params:
                errors.append(f"{where}: missing required param {k!r}")
    return errors


def validate_manifest(manifest):
    """Violations for an artifact's manifest block."""
    if not isinstance(manifest, dict):
        return ['"manifest" must be an object']
    errors = []
    if manifest.get("schema") != MANIFEST_SCHEMA:
        errors.append(
            f'manifest schema is {manifest.get("schema")!r}, '
            f"expected {MANIFEST_SCHEMA!r}"
        )
    for key in ("tool", "git_sha", "build_type", "compiler", "hostname"):
        if not isinstance(manifest.get(key), str) or not manifest.get(key):
            errors.append(f"manifest: {key!r} must be a non-empty string")
    for key in ("hardware_threads", "omp_max_threads", "unix_time_s"):
        if not isinstance(manifest.get(key), int):
            errors.append(f"manifest: {key!r} must be an integer")
    return errors


def selftest() -> int:
    """Exercise the validator against golden fixtures; 0 if all verdicts
    match expectations."""
    failures = []

    def expect(label, doc, want_clean, **kwargs):
        errs = validate(doc, **kwargs)
        if want_clean and errs:
            failures.append(f"{label}: expected clean, got {errs}")
        elif not want_clean and not errs:
            failures.append(f"{label}: expected violations, got none")

    expect("golden", GOLDEN, True, bench="sparse",
           require_metrics=["real_time_ms_median"])

    bad = copy.deepcopy(GOLDEN)
    bad["schema"] = "trkx-bench-v9"
    expect("unknown schema", bad, False)

    bad = copy.deepcopy(GOLDEN)
    del bad["schema"]
    expect("no schema", bad, False)

    bad = copy.deepcopy(GOLDEN)
    del bad["manifest"]
    expect("no manifest", bad, False)

    bad = copy.deepcopy(GOLDEN)
    bad["manifest"]["git_sha"] = ""
    expect("empty git_sha", bad, False)

    bad = copy.deepcopy(GOLDEN)
    bad["manifest"]["hardware_threads"] = "one"
    expect("non-integer hardware_threads", bad, False)

    bad = copy.deepcopy(GOLDEN)
    bad["series"][0]["metrics"]["real_time_ms_median"] = "fast"
    expect("string metric", bad, False)

    bad = copy.deepcopy(GOLDEN)
    bad["series"] = []
    expect("empty series", bad, False)

    bad = copy.deepcopy(GOLDEN)
    bad["series"][0]["params"]["benchmark"] = 7
    expect("non-string param", bad, False)

    for f in failures:
        print(f"selftest failure: {f}", file=sys.stderr)
    if not failures:
        print("check_bench_json selftest: OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", nargs="?", help="path to bench JSON")
    parser.add_argument("--bench", default="", help="expected bench name")
    parser.add_argument(
        "--require-metrics",
        default="",
        help="comma-separated metric keys every series must carry",
    )
    parser.add_argument(
        "--require-params",
        default="",
        help="comma-separated param keys every series must carry",
    )
    parser.add_argument(
        "--min-series", type=int, default=1, help="minimum series count"
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="validate the embedded golden fixtures and exit",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.artifact:
        parser.error("artifact path required (or --selftest)")

    try:
        with open(args.artifact, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse {args.artifact}: {exc}", file=sys.stderr)
        return 1

    errors = validate(
        doc,
        bench=args.bench,
        require_metrics=[k for k in args.require_metrics.split(",") if k],
        require_params=[k for k in args.require_params.split(",") if k],
        min_series=args.min_series,
    )
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print(f"{args.artifact}: OK ({len(doc.get('series', []))} series)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate a trkx CI-matrix summary JSON (scripts/ci_matrix.sh output).

Usage:
    check_ci_summary.py SUMMARY.json [--require-configs a,b]
                        [--require-overall pass]

Expected shape (schema v6, the only one ci_matrix.sh writes):

    {"schema": "trkx-ci-summary-v6",
     "jobs": <int>,
     "configs": [{"name": "<config>", "status": "pass"|"fail",
                  "seconds": <number>, "detail": "<string>",
                  "findings": <non-negative int, optional>,
                  "findings_by_pass": {"<pass>": <int>, ...} optional,
                  "regressions": <non-negative int, optional>,
                  "verdicts": {"<bench>": "pass"|"fail", ...} optional,
                  "counters": {"serve.accepted": <int>, ...} optional},
                 ...],
     "overall": "pass"|"fail"}

"findings" is the count of analyzer findings a static-analysis leg saw
(0 on a clean tree). "regressions" and "verdicts" are the perf leg's
scripts/check_regression.py --report output. "findings_by_pass" holds
one count per trkx-analyze pass; the analyze config's map must cover
the dataflow passes (collective-consistency, hot-path, rng-stream), so
a summary cannot silently drop them from the pass roster. The serve
config must carry "counters" (the serve.* failure-mode accounting
printed by trkx-serve) covering the admission/retry counters, so a
summary cannot drop the serving contract.

Mirrors scripts/check_bench_json.py: schema violations are listed one per
line and the exit code gates CI. --require-configs pins which matrix legs
must be present; --require-overall fails validation unless the overall
status matches.
"""

import argparse
import json
import sys

SCHEMA = "trkx-ci-summary-v6"

# Passes the analyze leg's findings_by_pass must cover (the dataflow passes).
ANALYZE_PASSES = ("collective-consistency", "hot-path", "rng-stream")

# Counters the serve leg must report (the serving failure-mode contract).
SERVE_COUNTERS = ("serve.accepted", "serve.completed",
                  "serve.rejected.queue_full", "serve.retry")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="path to summary JSON")
    parser.add_argument(
        "--require-configs",
        default="",
        help="comma-separated config names that must be present",
    )
    parser.add_argument(
        "--require-overall",
        default="",
        choices=["", "pass", "fail"],
        help="fail validation unless overall matches",
    )
    args = parser.parse_args()

    errors = []
    try:
        with open(args.artifact, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse {args.artifact}: {exc}", file=sys.stderr)
        return 1

    if not isinstance(doc, dict):
        errors.append("top level is not an object")
        doc = {}
    if doc.get("schema") != SCHEMA:
        errors.append(
            f'"schema" must be {SCHEMA!r}, got {doc.get("schema")!r}'
        )
    if not isinstance(doc.get("jobs"), int) or doc.get("jobs", 0) < 1:
        errors.append('"jobs" must be a positive integer')

    configs = doc.get("configs")
    if not isinstance(configs, list) or not configs:
        errors.append('"configs" must be a non-empty list')
        configs = []
    seen = set()
    any_fail = False
    for i, c in enumerate(configs):
        where = f"configs[{i}]"
        if not isinstance(c, dict):
            errors.append(f"{where} is not an object")
            continue
        name = c.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f'{where}: "name" must be a non-empty string')
        else:
            where = f"configs[{i}] ({name})"
            if name in seen:
                errors.append(f"{where}: duplicate config name")
            seen.add(name)
        status = c.get("status")
        if status not in ("pass", "fail"):
            errors.append(f'{where}: "status" must be "pass" or "fail"')
        any_fail = any_fail or status == "fail"
        if not isinstance(c.get("seconds"), (int, float)):
            errors.append(f'{where}: "seconds" must be a number')
        if not isinstance(c.get("detail"), str):
            errors.append(f'{where}: "detail" must be a string')
        for key in ("findings", "regressions"):
            value = c.get(key)
            if value is not None and (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 0
            ):
                errors.append(
                    f'{where}: {key!r} must be a non-negative integer '
                    "when present"
                )
        by_pass = c.get("findings_by_pass")
        if by_pass is not None:
            if not isinstance(by_pass, dict) or not by_pass:
                errors.append(
                    f'{where}: "findings_by_pass" must be a non-empty '
                    "object when present"
                )
            else:
                for pass_name, n in by_pass.items():
                    if (not isinstance(n, int) or isinstance(n, bool)
                            or n < 0):
                        errors.append(
                            f"{where}: findings_by_pass[{pass_name!r}] "
                            "must be a non-negative integer"
                        )
                if name == "analyze":
                    for required in ANALYZE_PASSES:
                        if required not in by_pass:
                            errors.append(
                                f"{where}: findings_by_pass must "
                                f"include the {required!r} pass"
                            )
        serve_counters = c.get("counters")
        if serve_counters is not None:
            if not isinstance(serve_counters, dict):
                errors.append(f'{where}: "counters" must be an object')
                serve_counters = {}
            for counter, n in serve_counters.items():
                if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                    errors.append(
                        f"{where}: counters[{counter!r}] must be a "
                        "non-negative integer"
                    )
        if name == "serve":
            if serve_counters is None:
                errors.append(
                    f'{where}: a serve config must carry "counters"'
                )
            else:
                for required in SERVE_COUNTERS:
                    if required not in serve_counters:
                        errors.append(
                            f"{where}: serve counters must include "
                            f"{required!r}"
                        )
        verdicts = c.get("verdicts")
        if verdicts is not None:
            if not isinstance(verdicts, dict):
                errors.append(f'{where}: "verdicts" must be an object')
            else:
                for bench, verdict in verdicts.items():
                    if verdict not in ("pass", "fail"):
                        errors.append(
                            f'{where}: verdict for {bench!r} must be '
                            '"pass" or "fail"'
                        )

    overall = doc.get("overall")
    if overall not in ("pass", "fail"):
        errors.append('"overall" must be "pass" or "fail"')
    elif (overall == "pass") == any_fail:
        errors.append(
            f'"overall" is {overall!r} but config statuses say '
            f'{"fail" if any_fail else "pass"}'
        )
    if args.require_overall and overall != args.require_overall:
        errors.append(
            f'"overall" is {overall!r}, required {args.require_overall!r}'
        )
    for name in [n for n in args.require_configs.split(",") if n]:
        if name not in seen:
            errors.append(f"missing required config {name!r}")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print(f"{args.artifact}: OK ({len(configs)} configs, {overall})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

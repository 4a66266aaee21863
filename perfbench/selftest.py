#!/usr/bin/env python3
"""Reduced-length self-test of the train-and-serve benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly and checks that the result line names every
BENCHMARK.json metric with its unit (end-to-end untraced, per-layer traced),
that a deliberately broken output check makes the run exit non-zero, and
that a directory holding only the benchmark's own files fails without a
result. Training runs use 3 s; serving runs keep 8 s, because the p99 check
needs 1000 completed requests. Takes about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = {"train": 3, "serve": 8}


def bench(workload, seconds, trace=0, sabotage="", root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    traced = {"train-ex3", "serve-steady"}
    for name, w in workloads.items():
        seconds = SECONDS[w["kind"]]
        for trace in (0, 1) if name in traced else (0,):
            code, result, proc = bench(name, seconds, trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            tag = f"{name} trace={trace}"
            expect(code == 0 and result is not None and result.get("correct") is True,
                   f"{tag}: exits 0 with correct=true")
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result has exactly correct/attempted/failed/metrics")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                   f"{tag}: attempted >= 1")
            got = result["metrics"]
            expect(list(got) == [m["name"] for m in declared],
                   f"{tag}: every declared metric, in order")
            expect(all(got.get(m["name"], {}).get("unit") == m["unit"] and
                       isinstance(got[m["name"]]["value"], (int, float))
                       for m in declared),
                   f"{tag}: every metric carries its declared unit and a number")

    for name, sabotage in (("train-ex3", "quality"), ("serve-steady", "oracle")):
        seconds = SECONDS[workloads[name]["kind"]]
        code, result, _ = bench(name, seconds, sabotage=sabotage)
        expect(code != 0 and (result is None or result.get("correct") is False),
               f"{name}: a broken {sabotage} check exits non-zero")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _ = bench("train-ex3", 3, root=bare)
    expect(code != 0 and result is None,
           "a directory with only the benchmark files exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

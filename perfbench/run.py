#!/usr/bin/env python3
"""Train-and-serve benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's libraries from src/)
into .bench_build/perfbench, runs the workload's constants from
perfbench/workloads.json under the workload's OpenMP thread count, and
prints as its last line one JSON object: correct, attempted, failed and the
BENCHMARK.json metrics (end-to-end with --trace 0, per-layer with
--trace 1). A failed output check or a determinism defect exits 1; an
error that stops the run exits 2 without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "trkx_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    """An error that stops the run: exit 2, print no result."""
    log("perfbench: " + msg)
    sys.exit(2)


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under cmake included), wait for it and fail the run."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out, err


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", BUILD, "--target", "trkx_perfbench", "-j", jobs])
    for cmd in steps:
        code, out, err = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            log(out + err)
            fail("build failed: " + " ".join(cmd))


def check_determinism(key, exact):
    """Values that must repeat exactly for a fixed seed and build are kept
    per (workload, seed, seconds, sabotage, binary, constants); a differing
    repeat is a defect. A sabotaged run changes its own outputs, so it is
    kept apart from the plain runs of the same seed."""
    path = os.path.join(BUILD, "exact.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    previous = seen.get(key, {})
    defects = [f"{name}: {previous[name]!r} before, {value!r} now"
               for name, value in exact.items()
               if name in previous and previous[name] != value]
    seen[key] = {**previous, **exact}
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return defects


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sabotage", default="",
                    help="break one output check on purpose (self-test only)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}")
    spec = workloads[args.workload]

    build()
    with open(BINARY, "rb") as f:
        binary_sha = hashlib.sha256(f.read()).hexdigest()[:16]

    # Every mechanism switch stays at its default: no TRKX_* knob reaches the
    # program, and the workload alone sets the OpenMP team size. Idle OpenMP
    # threads sleep instead of spinning, so process CPU time counts work,
    # not how long a thread waited at a barrier on a busy machine.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TRKX_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = str(spec["omp_threads"])
    env["OMP_WAIT_POLICY"] = "passive"
    cmd = [BINARY, "--workload", args.workload, "--kind", spec["kind"],
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    for key, value in spec["constants"].items():
        cmd += ["--" + key, str(value)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", f"{args.workload}-seed{args.seed}.json")]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    code, out, err = run(cmd, RUN_TIMEOUT_S, env)
    lines = out.splitlines()
    result_lines = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if code not in (0, 1) or not result_lines:
        log(err)
        fail(f"{args.workload} stopped with exit code {code}")
    result = json.loads(result_lines[-1][len("RESULT "):])

    constants_sha = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    key = (f"{args.workload}|{args.seed}|{args.seconds!r}|{args.sabotage}|"
           f"{binary_sha}|{constants_sha}")
    defects = check_determinism(key, result["exact"])
    for d in defects:
        print(f"DEFECT (not noise): a value that must repeat exactly changed: {d}")

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {m['name']}")
            print(f"absent on this workload: {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = bool(result["ok"]) and not defects
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# ci_matrix.sh — the one CI entry point: run the full correctness/config
# matrix with distinct build dirs and emit a machine-readable summary.
#
# Configurations:
#   release      RelWithDebInfo build + full ctest suite (tier-1 gate)
#   simd         full ctest suite re-run against the release build with
#                the kernel dispatch pinned (TRKX_SIMD=scalar, then
#                TRKX_SIMD=avx2 when the host supports it); with the
#                release leg's auto run (avx512 on an AVX-512F host) every
#                table the host supports passes every test. The detail
#                names the table auto resolves to
#   asan-ubsan   TRKX_SANITIZE=address;undefined, suite minus perf-smoke
#   tsan-stress  TRKX_SANITIZE=thread, tsan-stress labelled tests
#   chaos        fault-injection leg: chaos-labelled ctest suite, then a
#                TRKX_FAULTS matrix (I/O error, delay, rank-kill) driven
#                end-to-end through the example binaries, asserting exit
#                codes, emergency checkpoints, and clean resume
#   analyze      trkx-analyze (fixture selftest + all passes over the
#                real tree, including the cross-TU lock-order /
#                throw-boundary / env-registry / collective-consistency /
#                hot-path / rng-stream passes); the run is gated against
#                the committed baseline (scripts/analyze/baseline.json)
#                and also emits SARIF to build-ci/analyze.sarif; the
#                summary carries the total findings count and a per-pass
#                findings_by_pass map, and the leg dumps the cross-TU
#                fact database to build-ci/facts.json unconditionally,
#                as its own gated step
#   lint-tidy    trkx-analyze conventions pass (+ standalone headers) and
#                clang-tidy over src/ if installed (.clang-tidy)
#   tsa          Clang -Wthread-safety build (CMakeLists.txt makes the
#                analysis an error under Clang); the build is the check,
#                no tests run. Recorded as skipped without clang++: the
#                annotations compile as no-ops under GCC
#   werror       Release (-O3) build of every target with TRKX_WERROR=ON;
#                the build is the check, no tests run. -O3 inlines more
#                than the RelWithDebInfo legs, and GCC warns on what it
#                inlines
#   serve        serving robustness leg: trkx-serve driven end-to-end
#                under a TRKX_FAULTS matrix (transient/persistent stage
#                faults, admission faults, overload, corrupt-checkpoint
#                reload) plus a model file with one flipped byte that
#                must fail the load (exit 1, CRC error logged), asserting
#                exit codes and the serve.* counter contract on stdout;
#                the summary carries the baseline
#                run's counters map
#   perf         scripts/trkx-bench quick profile against the release
#                build, gated by scripts/check_regression.py against the
#                committed BENCH_PR10.json trajectory; the summary carries
#                the regression count and per-bench verdicts
#   perfbench    python3 perfbench/selftest.py: builds the train-and-serve
#                benchmark from this tree into .bench_build/ and runs
#                every workload briefly (a few minutes), so a library
#                change that breaks what the benchmark compiles against
#                or reports fails here rather than at benchmark time;
#                pass/fail only, no timings are gated
#
# Usage:
#   scripts/ci_matrix.sh [--only NAME[,NAME...]] [--out SUMMARY.json]
#
# Each configuration builds under build-ci/<name>; logs live next to the
# binaries. The summary JSON (default build-ci/ci_summary.json) follows
# the schema validated by scripts/check_ci_summary.py — the same
# artifact-plus-validator pattern as the bench JSON — so downstream
# tooling can gate on it without scraping logs. Exit code: number of
# failed configurations.

set -u
cd "$(dirname "$0")/.."

JOBS="${TRKX_JOBS:-$(nproc)}"
SUPP="$PWD/scripts/sanitizers"
OUT="build-ci/ci_summary.json"
ONLY=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --only) ONLY="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "usage: $0 [--only name,name] [--out summary.json]" >&2; exit 2 ;;
  esac
done

# Sanitizer runtime options. halt_on_error turns any report into a test
# failure; the suppression files silence known libgomp runtime noise only
# (policy: scripts/sanitizers/*.supp headers).
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export LSAN_OPTIONS="suppressions=$SUPP/lsan.supp"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$SUPP/ubsan.supp"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$SUPP/tsan.supp"

mkdir -p build-ci
NAMES=() STATUSES=() SECONDS_LIST=() DETAILS=() FINDINGS_LIST=()
REGRESSIONS_LIST=() VERDICTS_LIST=() BY_PASS_LIST=() COUNTERS_LIST=()

record() {  # record <name> <status> <seconds> <detail> [findings]
            #        [regressions] [verdicts-json] [findings-by-pass-json]
            #        [counters-json]
  NAMES+=("$1"); STATUSES+=("$2"); SECONDS_LIST+=("$3"); DETAILS+=("$4")
  FINDINGS_LIST+=("${5:-}")
  REGRESSIONS_LIST+=("${6:-}"); VERDICTS_LIST+=("${7:-}")
  BY_PASS_LIST+=("${8:-}"); COUNTERS_LIST+=("${9:-}")
  printf '[ci-matrix] %-12s %-5s (%ss) %s\n' "$1" "$2" "$3" "$4"
}

wants() {
  [ -z "$ONLY" ] && return 0
  case ",$ONLY," in *",$1,"*) return 0 ;; *) return 1 ;; esac
}

build_and_test() {  # build_and_test <name> <ctest-args...> -- <cmake-args...>
  local name="$1"; shift
  local ctest_args=()
  while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do ctest_args+=("$1"); shift; done
  [ "$#" -gt 0 ] && shift
  local dir="build-ci/$name"
  local t0 t1
  t0=$(date +%s)
  mkdir -p "$dir"
  if ! cmake -B "$dir" -S . "$@" > "$dir/configure.log" 2>&1; then
    record "$name" fail "$(( $(date +%s) - t0 ))" "configure: $dir/configure.log"
    return 1
  fi
  if ! cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1; then
    record "$name" fail "$(( $(date +%s) - t0 ))" "build: $dir/build.log"
    return 1
  fi
  if ! (cd "$dir" &&
        ctest --output-on-failure -j "$JOBS" "${ctest_args[@]}" \
          > ctest.log 2>&1); then
    record "$name" fail "$(( $(date +%s) - t0 ))" "ctest: $dir/ctest.log"
    return 1
  fi
  t1=$(date +%s)
  record "$name" pass "$((t1 - t0))" "$dir"
}

if wants release; then
  build_and_test release -- -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if wants simd; then
  # One build, the suite run once per pinned dispatch table. TRKX_SIMD
  # overrides the auto cpuid resolution. The release leg's unpinned run
  # is the lap of the table auto resolves to: avx512 on a host with
  # AVX-512F, which TRKX_SIMD cannot pin. The scalar and avx2 laps here
  # complete the set, so every table the host supports passes every test
  # — equivalence beyond the targeted tests in kernels_test. Hosts
  # without AVX2+FMA run the scalar lap only (TRKX_SIMD=avx2 would be a
  # fatal config error there).
  t0=$(date +%s)
  dir=build-ci/simd
  status=pass detail="$dir"
  mkdir -p "$dir"
  # kernels::host_has_avx2() needs AVX2 and FMA, host_has_avx512() those
  # and AVX-512F; a CPU model exposing AVX2 alone must skip the avx2 lap,
  # not die on the TRKX_SIMD=avx2 check.
  cpu_flags=$(grep -m1 '^flags' /proc/cpuinfo 2> /dev/null)
  auto_table=scalar
  if grep -qw avx2 <<< "$cpu_flags" && grep -qw fma <<< "$cpu_flags"; then
    auto_table=avx2
    grep -qw avx512f <<< "$cpu_flags" && auto_table=avx512
  fi
  if cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       > "$dir/configure.log" 2>&1 &&
     cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1; then
    (cd "$dir" && TRKX_SIMD=scalar ctest --output-on-failure -j "$JOBS" \
       > ctest-scalar.log 2>&1) ||
      { status=fail; detail="ctest: $dir/ctest-scalar.log"; }
    if [ "$auto_table" != scalar ]; then
      (cd "$dir" && TRKX_SIMD=avx2 ctest --output-on-failure -j "$JOBS" \
         > ctest-avx2.log 2>&1) ||
        { status=fail; detail="ctest: $dir/ctest-avx2.log"; }
    else
      echo "[ci-matrix] simd: host lacks AVX2+FMA, scalar lap only"
    fi
  else
    status=fail detail="build: $dir/build.log"
  fi
  record simd "$status" "$(( $(date +%s) - t0 ))" \
    "$detail; auto (release leg) resolves to $auto_table"
fi

if wants asan-ubsan; then
  build_and_test asan-ubsan -LE perf-smoke -- \
    "-DTRKX_SANITIZE=address;undefined" \
    -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF
fi

if wants tsan-stress; then
  build_and_test tsan-stress -L tsan-stress -- -DTRKX_SANITIZE=thread \
    -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF
fi

if wants chaos; then
  t0=$(date +%s)
  dir=build-ci/chaos
  chaos_log="$dir/chaos.log"
  status=pass
  mkdir -p "$dir"
  if cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DTRKX_BUILD_BENCHES=OFF > "$dir/configure.log" 2>&1 &&
     cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1; then
    # Deterministic in-test fault matrix first: crash/resume bit-equality,
    # rank-kill propagation, collective timeouts, I/O retry + quarantine.
    (cd "$dir" && ctest --output-on-failure -j "$JOBS" -L chaos \
       > ctest.log 2>&1) || status=fail
    # Then the same failure modes end-to-end through the example binaries,
    # armed via TRKX_FAULTS exactly as an operator would.
    ex="$dir/examples/minibatch_training"
    dex="$dir/examples/distributed_training"
    ck="$dir/chaos-ckpt"
    rm -rf "$ck"
    : > "$chaos_log"
    chaos_run() {  # chaos_run <expect:ok|fail> <faults> <cmd...>
      local expect="$1" faults="$2"; shift 2
      echo "== TRKX_FAULTS='$faults' $*" >> "$chaos_log"
      local rc=0
      TRKX_FAULTS="$faults" "$@" >> "$chaos_log" 2>&1 || rc=$?
      if { [ "$expect" = ok ] && [ "$rc" -ne 0 ]; } ||
         { [ "$expect" = fail ] && [ "$rc" -eq 0 ]; }; then
        echo "== FAIL: expected $expect, got exit $rc" >> "$chaos_log"
        status=fail
      fi
    }
    # Transient I/O fault: the tolerant loader retries and the run
    # completes (the log shows nonzero retries in the event-cache line).
    chaos_run ok "io.read_event:error:nth=1" \
      "$ex" --scale 0.02 --epochs 2 --event-cache "$dir/chaos-events.bin" \
      --checkpoint-dir "$ck/io"
    # Injected latency only slows the load; results are unaffected.
    chaos_run ok "io.read_event:delay:ms=20:every=3" \
      "$ex" --scale 0.02 --epochs 2 --event-cache "$dir/chaos-events.bin" \
      --checkpoint-dir "$ck/delay"
    # Rank-kill mid-train: nonzero exit with a checkpoint left behind...
    chaos_run fail "train.epoch:rank-kill:nth=2" \
      "$ex" --scale 0.02 --epochs 3 --checkpoint-dir "$ck/kill"
    if [ ! -e "$ck/kill/ckpt-000001.ckpt" ]; then
      echo "== FAIL: no checkpoint after rank-kill" >> "$chaos_log"
      status=fail
    fi
    # ...and a fault-free rerun resumes it to completion.
    chaos_run ok "" \
      "$ex" --scale 0.02 --epochs 3 --checkpoint-dir "$ck/kill" --resume
    # Dead DDP rank: survivors hit the collective timeout instead of
    # deadlocking, flush an emergency checkpoint, and exit nonzero.
    chaos_run fail "train.epoch:rank-kill:nth=2:rank=1" \
      "$dex" --ranks 2 --scale 0.02 --epochs 3 --checkpoint-dir "$ck/ddp" \
      --comm-timeout-ms 5000
    chaos_run ok "" \
      "$dex" --ranks 2 --scale 0.02 --epochs 3 --checkpoint-dir "$ck/ddp" \
      --resume
  else
    status=fail
  fi
  record chaos "$status" "$(( $(date +%s) - t0 ))" "$chaos_log"
fi

if wants serve; then
  # Serving robustness: the failure modes that must degrade, not kill.
  # Every run asserts the exit code AND the serve.* counter contract the
  # driver prints on stdout — an injected fault that silently stopped
  # being counted fails the leg even if the process exits 0.
  t0=$(date +%s)
  dir=build-ci/serve
  serve_log="$dir/serve.log"
  status=pass counters=""
  mkdir -p "$dir"
  if cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF \
       > "$dir/configure.log" 2>&1 &&
     cmake --build "$dir" -j "$JOBS" --target trkx-serve \
       > "$dir/build.log" 2>&1; then
    srv="$dir/src/serve/trkx-serve"
    ck="$dir/serve-ckpt"
    rm -rf "$ck"
    : > "$serve_log"
    run_idx=0
    serve_run() {  # serve_run <expect:ok|fail> <faults> <asserts> <args...>
      # <asserts>: space-separated grep -E patterns that must ALL match
      # the run's stdout (the serve.<counter>=<value> contract) — or, for
      # an expected failure (exit 1), its log on stderr.
      local expect="$1" faults="$2" asserts="$3"; shift 3
      run_idx=$((run_idx + 1))
      local out="$dir/run-$run_idx.out" err="$dir/run-$run_idx.err" rc=0 pat
      echo "== [$run_idx] TRKX_FAULTS='$faults' trkx-serve $*" >> "$serve_log"
      TRKX_FAULTS="$faults" "$srv" "$@" > "$out" 2> "$err" || rc=$?
      cat "$err" "$out" >> "$serve_log"
      if { [ "$expect" = ok ] && [ "$rc" -ne 0 ]; } ||
         { [ "$expect" = fail ] && [ "$rc" -ne 1 ]; }; then
        echo "== FAIL: expected $expect, got exit $rc" >> "$serve_log"
        status=fail
      fi
      [ "$expect" = fail ] && out="$err"
      for pat in $asserts; do
        if ! grep -Eq "$pat" "$out"; then
          echo "== FAIL: assert '$pat' not satisfied" >> "$serve_log"
          status=fail
        fi
      done
    }
    # Baseline, fault-free: everything accepted completes, and the warm
    # model + a first checkpoint are left behind for the later runs.
    serve_run ok "" \
      "serve.completed=[1-9] serve.failed=0 serve.exit=ok" \
      --events 10 --train 2 --save-model "$dir/model.bin" \
      --checkpoint-dir "$ck" --write-checkpoint
    # Transient stage fault: retried within budget, the request completes.
    serve_run ok "serve.stage:error:nth=3" \
      "serve.retry=[1-9] serve.retry.exhausted=0 serve.exit=ok" \
      --events 8 --model "$dir/model.bin"
    # Admission fault: one fast typed rejection, the rest serve normally.
    serve_run ok "serve.admit:error:nth=2" \
      "serve.rejected.admit_fault=1 serve.submit.rejected=[1-9] serve.exit=ok" \
      --events 8 --model "$dir/model.bin"
    # Persistent stage fault: every request fails *typed* (retry budget
    # exhausted per request), yet the server drains and exits cleanly —
    # degraded, not dead.
    serve_run ok "serve.stage:error:every=1" \
      "serve.retry.exhausted=[1-9] serve.result.failed=[1-9] serve.exit=ok" \
      --events 6 --model "$dir/model.bin"
    # Overload: 1 worker, depth-1 queue, full-speed submission — the
    # bounded queue sheds with OverloadError instead of queueing.
    serve_run ok "" \
      "serve.rejected.queue_full=[1-9] serve.completed=[1-9] serve.exit=ok" \
      --events 24 --workers 1 --queue-depth 1 --model "$dir/model.bin"
    # Corrupt newest checkpoint: the reload scan skips it and swaps in the
    # older valid one.
    printf 'torn write garbage' > "$ck/ckpt-000099.ckpt"
    serve_run ok "" \
      "serve.reload.ok=[1-9] serve.exit=ok" \
      --events 6 --model "$dir/model.bin" --checkpoint-dir "$ck" \
      --reload-every 3
    # Injected reload fault: every reload fails, the original replica
    # keeps serving (generation stays 1).
    serve_run ok "serve.checkpoint_reload:error:every=1" \
      "serve.reload.fail=[1-9] serve.replica.generation=1 serve.exit=ok" \
      --events 6 --model "$dir/model.bin" --checkpoint-dir "$ck" \
      --reload-every 2
    # Corrupt model file: one flipped byte inside the last weight must fail
    # the load on its CRC — exit 1 with the CRC error in the log — never
    # serve wrong weights.
    cp "$dir/model.bin" "$dir/model-flipped.bin"
    python3 - "$dir/model-flipped.bin" << 'EOF'
import sys
with open(sys.argv[1], "r+b") as f:
    data = bytearray(f.read())
    data[-3] ^= 0x10
    f.seek(0)
    f.write(data)
EOF
    serve_run fail "" "CRC.mismatch" \
      --events 4 --model "$dir/model-flipped.bin"
    counters=$(python3 - "$dir/run-1.out" << 'EOF'
import json, sys
c = {}
for line in open(sys.argv[1]):
    key, _, value = line.strip().partition("=")
    if key.startswith("serve.") and value.isdigit():
        c[key] = int(value)
print(json.dumps(c))
EOF
    ) || status=fail
  else
    status=fail
    serve_log="$dir/build.log"
  fi
  record serve "$status" "$(( $(date +%s) - t0 ))" "$serve_log" \
    "" "" "" "" "$counters"
fi

if wants perf; then
  t0=$(date +%s)
  dir=build-ci/perf
  perf_log="$dir/perf.log"
  status=pass regressions="" verdicts=""
  mkdir -p "$dir"
  if cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       > "$dir/configure.log" 2>&1 &&
     cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1; then
    if python3 scripts/trkx-bench --build-dir "$dir" --profile quick \
         --out "$dir/BENCH.json" > "$perf_log" 2>&1; then
      python3 scripts/check_regression.py BENCH_PR10.json "$dir/BENCH.json" \
        --report "$dir/regression.json" >> "$perf_log" 2>&1 || status=fail
      if [ -f "$dir/regression.json" ]; then
        regressions=$(python3 -c "import json; \
print(json.load(open('$dir/regression.json'))['regressions'])")
        verdicts=$(python3 -c "import json; \
print(json.dumps(json.load(open('$dir/regression.json'))['verdicts']))")
      fi
    else
      status=fail
    fi
  else
    status=fail
    perf_log="$dir/build.log"
  fi
  record perf "$status" "$(( $(date +%s) - t0 ))" "$perf_log" "" \
    "$regressions" "$verdicts"
fi

if wants perfbench; then
  t0=$(date +%s)
  perfbench_log=build-ci/perfbench.log
  status=pass
  python3 perfbench/selftest.py > "$perfbench_log" 2>&1 || status=fail
  record perfbench "$status" "$(( $(date +%s) - t0 ))" "$perfbench_log"
fi

if wants analyze; then
  t0=$(date +%s)
  analyze_log=build-ci/analyze.log
  status=pass
  python3 scripts/analyze/selftest.py > "$analyze_log" 2>&1 || status=fail
  # The phase-1 fact database is archived unconditionally, as its own
  # gated step (empty --passes), so a pass failure can't leave CI
  # without the facts needed to debug it.
  python3 scripts/trkx-analyze --root . --passes '' \
    --facts-out build-ci/facts.json \
    >> "$analyze_log" 2>&1 || status=fail
  # One run over the real tree: all passes (per-file + cross-TU), the
  # per-pass finding counts for the summary, SARIF for code-scanning
  # upload, and the committed-baseline gate (empty today; the ratchet
  # for adopting a new pass against known debt).
  python3 scripts/trkx-analyze --root . \
    --counts-out build-ci/analyze_counts.json \
    --sarif build-ci/analyze.sarif \
    --baseline scripts/analyze/baseline.json \
    >> "$analyze_log" 2>&1 || status=fail
  # Findings print one per line as "path:line: [rule] message".
  findings=$(grep -c ': \[[a-z-]*\] ' "$analyze_log" || true)
  by_pass=""
  [ -f build-ci/analyze_counts.json ] && \
    by_pass=$(cat build-ci/analyze_counts.json)
  record analyze "$status" "$(( $(date +%s) - t0 ))" "$analyze_log" \
    "$findings" "" "" "$by_pass"
fi

if wants lint-tidy; then
  t0=$(date +%s)
  lint_log=build-ci/lint.log
  status=pass detail="$lint_log"
  python3 scripts/trkx-analyze --root . --passes conventions \
    --check-headers --compiler "${CXX:-c++}" > "$lint_log" 2>&1 ||
    status=fail
  if command -v clang-tidy > /dev/null 2>&1; then
    dir=build-ci/tidy
    mkdir -p "$dir"
    if cmake -B "$dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
         -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF \
         > "$dir/configure.log" 2>&1; then
      mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
      clang-tidy -p "$dir" --quiet "${tidy_sources[@]}" >> "$lint_log" 2>&1 ||
        status=fail
    else
      status=fail detail="configure: $dir/configure.log"
    fi
  elif [ "$status" = pass ]; then
    detail="lint only (clang-tidy not installed)"
  fi
  record lint-tidy "$status" "$(( $(date +%s) - t0 ))" "$detail"
fi

if wants tsa; then
  if command -v clang++ > /dev/null 2>&1; then
    build_and_test tsa -R '^$' -- -DCMAKE_CXX_COMPILER=clang++ \
      -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF
  else
    record tsa pass 0 "skipped (clang++ not installed)"
  fi
fi

if wants werror; then
  build_and_test werror -R '^$' -- -DCMAKE_BUILD_TYPE=Release -DTRKX_WERROR=ON
fi

# ---- summary JSON ----
FAILED=0
{
  printf '{\n  "schema": "trkx-ci-summary-v6",\n'
  printf '  "jobs": %s,\n' "$JOBS"
  printf '  "configs": [\n'
  for i in "${!NAMES[@]}"; do
    [ "${STATUSES[$i]}" = fail ] && FAILED=$((FAILED + 1))
    extra=""
    [ -n "${FINDINGS_LIST[$i]}" ] && extra=", \"findings\": ${FINDINGS_LIST[$i]}"
    [ -n "${REGRESSIONS_LIST[$i]}" ] && \
      extra="$extra, \"regressions\": ${REGRESSIONS_LIST[$i]}"
    [ -n "${VERDICTS_LIST[$i]}" ] && \
      extra="$extra, \"verdicts\": ${VERDICTS_LIST[$i]}"
    [ -n "${BY_PASS_LIST[$i]}" ] && \
      extra="$extra, \"findings_by_pass\": ${BY_PASS_LIST[$i]}"
    [ -n "${COUNTERS_LIST[$i]}" ] && \
      extra="$extra, \"counters\": ${COUNTERS_LIST[$i]}"
    printf '    {"name": "%s", "status": "%s", "seconds": %s, "detail": "%s"%s}%s\n' \
      "${NAMES[$i]}" "${STATUSES[$i]}" "${SECONDS_LIST[$i]}" \
      "${DETAILS[$i]}" "$extra" \
      "$([ "$i" -lt $(( ${#NAMES[@]} - 1 )) ] && echo ,)"
  done
  printf '  ],\n'
  if [ "$FAILED" -eq 0 ]; then
    printf '  "overall": "pass"\n'
  else
    printf '  "overall": "fail"\n'
  fi
  printf '}\n'
} > "$OUT"

python3 scripts/check_ci_summary.py "$OUT" || exit 1
echo "[ci-matrix] summary: $OUT ($FAILED failed)"
exit "$FAILED"

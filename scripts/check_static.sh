#!/usr/bin/env bash
# check_static.sh — single entry point for the trkx correctness gate.
#
# Runs, in order (skip/select with flags):
#   lint        trkx-analyze conventions pass + standalone-header compile
#               check
#   analyze     trkx-analyze: fixture selftest + every pass — per-file
#               (omp-sharing, layering, numeric-safety, kernel-dispatch,
#               conventions) and cross-TU (lock-order, throw-boundary,
#               env-registry, collective-consistency, hot-path,
#               rng-stream); dumps the fact database to
#               build-check/facts.json as its own gated step
#   tidy        clang-tidy over src/ (skipped with a note if not installed)
#   tsa         Clang -Wthread-safety -Werror build (skipped without clang)
#   asan        ASan+UBSan build, full test suite (minus perf-smoke)
#   tsan        TSan build, tsan-stress labelled tests
#
# Usage:
#   scripts/check_static.sh            # everything applicable
#   scripts/check_static.sh --lint --analyze --asan
#   TRKX_JOBS=8 scripts/check_static.sh --tsan
#
# Build trees go under build-check/<leg> so they never disturb ./build.
# Exit code: number of failed legs (0 = gate passed).

set -u
cd "$(dirname "$0")/.."

JOBS="${TRKX_JOBS:-$(nproc)}"
SUPP="$PWD/scripts/sanitizers"
RUN_LINT=0 RUN_ANALYZE=0 RUN_TIDY=0 RUN_TSA=0 RUN_ASAN=0 RUN_TSAN=0
if [ "$#" -eq 0 ]; then
  RUN_LINT=1 RUN_ANALYZE=1 RUN_TIDY=1 RUN_TSA=1 RUN_ASAN=1 RUN_TSAN=1
fi
for arg in "$@"; do
  case "$arg" in
    --lint) RUN_LINT=1 ;;
    --analyze) RUN_ANALYZE=1 ;;
    --tidy) RUN_TIDY=1 ;;
    --tsa) RUN_TSA=1 ;;
    --asan) RUN_ASAN=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --all) RUN_LINT=1 RUN_ANALYZE=1 RUN_TIDY=1 RUN_TSA=1 RUN_ASAN=1 RUN_TSAN=1 ;;
    *) echo "usage: $0 [--lint] [--analyze] [--tidy] [--tsa] [--asan]" \
            "[--tsan] [--all]" >&2
       exit 2 ;;
  esac
done

FAILURES=0
note() { printf '\n=== %s ===\n' "$*"; }
fail() { echo "FAIL: $*" >&2; FAILURES=$((FAILURES + 1)); }

# Sanitizer runtime options. halt_on_error turns any report into a test
# failure; the suppression files silence known libgomp runtime noise only
# (policy: scripts/sanitizers/*.supp headers).
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export LSAN_OPTIONS="suppressions=$SUPP/lsan.supp"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$SUPP/ubsan.supp"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$SUPP/tsan.supp"

configure_and_test() {
  # configure_and_test <leg> <ctest-args...> -- <cmake-args...>
  local leg="$1"; shift
  local ctest_args=()
  while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do ctest_args+=("$1"); shift; done
  [ "$#" -gt 0 ] && shift  # drop --
  local dir="build-check/$leg"
  mkdir -p "$dir"
  cmake -B "$dir" -S . -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF \
        "$@" > "$dir/configure.log" 2>&1 ||
    { fail "$leg: configure (see $dir/configure.log)"; return 1; }
  cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1 ||
    { fail "$leg: build (see $dir/build.log)"; tail -30 "$dir/build.log"; return 1; }
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${ctest_args[@]}") ||
    { fail "$leg: tests"; return 1; }
}

if [ "$RUN_LINT" -eq 1 ]; then
  note "lint (trkx-analyze conventions pass + standalone headers)"
  python3 scripts/trkx-analyze --root . --passes conventions --check-headers \
    --compiler "${CXX:-c++}" || fail "lint"
fi

if [ "$RUN_ANALYZE" -eq 1 ]; then
  note "trkx-analyze (selftest + per-file and cross-TU passes)"
  python3 scripts/analyze/selftest.py || fail "analyze-selftest"
  mkdir -p build-check
  # The fact-DB dump is its own gated step (empty --passes runs no
  # passes): a failed dump fails the leg even when every pass is clean,
  # and a pass failure can't mask a missing archive.
  python3 scripts/trkx-analyze --root . --passes '' \
    --facts-out build-check/facts.json || fail "trkx-analyze facts dump"
  python3 scripts/trkx-analyze --root . || fail "trkx-analyze"
fi

if [ "$RUN_TIDY" -eq 1 ]; then
  note "clang-tidy"
  if command -v clang-tidy > /dev/null 2>&1; then
    dir=build-check/tidy
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
          -DTRKX_BUILD_BENCHES=OFF -DTRKX_BUILD_EXAMPLES=OFF \
          > "$dir/configure.log" 2>&1 ||
      { fail "tidy: configure"; }
    if [ -f "$dir/compile_commands.json" ]; then
      mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
      clang-tidy -p "$dir" --quiet "${tidy_sources[@]}" || fail "clang-tidy"
    fi
  else
    echo "clang-tidy not installed — skipped (trkx-analyze covers the trkx-* rules)"
  fi
fi

if [ "$RUN_TSA" -eq 1 ]; then
  note "Clang thread-safety analysis build"
  if command -v clang++ > /dev/null 2>&1; then
    configure_and_test tsa -R '^$' -- -DCMAKE_CXX_COMPILER=clang++ ||
      true  # build is the check; the empty -R runs no tests
  else
    echo "clang++ not installed — skipped (annotations compile as no-ops" \
         "under GCC; run this leg on a machine with clang)"
  fi
fi

if [ "$RUN_ASAN" -eq 1 ]; then
  note "ASan+UBSan: full test suite"
  configure_and_test asan-ubsan -LE perf-smoke -- \
    "-DTRKX_SANITIZE=address;undefined" || true
fi

if [ "$RUN_TSAN" -eq 1 ]; then
  note "TSan: tsan-stress labelled tests"
  configure_and_test tsan -L tsan-stress -- -DTRKX_SANITIZE=thread || true
fi

note "summary"
if [ "$FAILURES" -eq 0 ]; then
  echo "check_static: all selected legs passed"
else
  echo "check_static: $FAILURES leg(s) FAILED" >&2
fi
exit "$FAILURES"

"""conventions pass: the original project-lint invariants, folded into
the analyzer as its fourth pass.  It runs over src/, tests/ and bench/
in the ``trkx_analyze`` ctest; ``trkx-analyze --passes conventions
--check-headers`` is the lint half of ci_matrix.sh's lint-tidy leg.

Rules:

    trkx-raw-rng      no std::mt19937 / std::default_random_engine /
                      rand() outside src/util/rng.* — all randomness flows
                      through trkx::Rng so runs stay reproducible and the
                      prefetch pipeline stays bit-identical to serial.
    trkx-io           no std::cout / std::cerr / printf-family outside
                      src/util/log.* — diagnostics go through TRKX_LOG.
    trkx-naked-new    no naked `new` — ownership goes through containers
                      or std::make_unique/make_shared.
    trkx-omp-critical every `#pragma omp critical` needs an adjacent
                      justifying comment.
    trkx-std-mutex    no raw std::mutex/lock types in src/ outside
                      util/annotations.hpp — use annotated trkx::Mutex.
    trkx-using-std    no `using namespace std;`.
    trkx-atomic-write no direct std::ofstream/fopen of a checkpoint
                      (*.ckpt / manifest) path outside the atomic-rename
                      helper in src/pipeline/checkpoint.cpp — a crash
                      mid-write must never leave a torn checkpoint that
                      resume would then trust.
    trkx-bench-json   every bench/bench_*.cpp must register with the
                      unified JSON writer (bench_json.hpp /
                      bench_gb_json.hpp) so new benchmarks join the perf
                      trajectory instead of printing a table no tooling
                      can gate on.  bench/ files are exempt from the
                      other conventions rules (benches legitimately
                      printf their tables).
"""

import os
import re
import subprocess
import tempfile

from .common import Finding

RULES = {
    "trkx-raw-rng": "raw std RNG outside util/rng (use trkx::Rng)",
    "trkx-io": "direct stdout/stderr outside util/log (use TRKX_LOG)",
    "trkx-naked-new": "naked new (use containers or make_unique)",
    "trkx-omp-critical": "omp critical without a justifying comment",
    "trkx-std-mutex": "raw std mutex type (use annotated trkx::Mutex)",
    "trkx-using-std": "using namespace std",
    "trkx-atomic-write":
        "checkpoint path opened directly (use atomic_write_file)",
    "trkx-bench-json":
        "bench does not emit the unified JSON artifact "
        "(use bench_json.hpp / bench_gb_json.hpp)",
}

RAW_RNG = re.compile(
    r"std::mt19937|std::default_random_engine|std::minstd_rand|"
    r"(?<![\w.:])s?rand\s*\("
)
DIRECT_IO = re.compile(
    r"std::cout|std::cerr|(?<![\w:])(?:printf|fprintf|puts|fputs)\s*\("
)
NAKED_NEW = re.compile(r"(?<![\w:.])new\s+[A-Za-z_(]")
OMP_CRITICAL = re.compile(r"#\s*pragma\s+omp\s.*\bcritical\b")
STD_MUTEX = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|lock_guard|unique_lock|"
    r"scoped_lock|condition_variable)\b"
)
USING_STD = re.compile(r"\busing\s+namespace\s+std\b")
DIRECT_FILE_OPEN = re.compile(r"std::ofstream\b|(?<![\w:])fopen\s*\(")
CKPT_PATH = re.compile(r"\.ckpt|manifest", re.IGNORECASE)
COMMENT = re.compile(r"//|/\*")
BENCH_JSON_REF = re.compile(
    r"bench_json\.hpp|bench_gb_json\.hpp|BenchJsonWriter|gb_json_main")

PATTERN_RULES = [
    ("trkx-raw-rng", RAW_RNG),
    ("trkx-io", DIRECT_IO),
    ("trkx-naked-new", NAKED_NEW),
    ("trkx-std-mutex", STD_MUTEX),
    ("trkx-using-std", USING_STD),
]


def is_exempt(rel, rule):
    rel = rel.replace(os.sep, "/")
    if rule == "trkx-raw-rng":
        return rel.startswith("src/util/rng")
    if rule == "trkx-io":
        return rel.startswith("src/util/log")
    if rule == "trkx-std-mutex":
        # The wrapper itself, and tests (which may exercise raw primitives).
        return rel == "src/util/annotations.hpp" or rel.startswith("tests/")
    if rule == "trkx-atomic-write":
        # The atomic-rename helper is the one legitimate writer.
        return rel == "src/pipeline/checkpoint.cpp"
    return False


def run(tree):
    findings = []
    for sf in tree.files():
        rel = sf.rel.replace(os.sep, "/")
        if rel.startswith("bench/"):
            # Benches print human tables by design; the only conventions
            # rule that applies there is trkx-bench-json.
            name = rel.rsplit("/", 1)[-1]
            if (name.startswith("bench_") and name.endswith(".cpp")
                    and not any(BENCH_JSON_REF.search(raw)
                                for raw in sf.raw)
                    and not sf.has_nolint(0, "trkx-bench-json")):
                findings.append(Finding(
                    sf.rel, 1, "trkx-bench-json",
                    RULES["trkx-bench-json"]))
            continue
        for i, code in enumerate(sf.code):
            for rule, pattern in PATTERN_RULES:
                if not pattern.search(code):
                    continue
                if is_exempt(sf.rel, rule) or sf.has_nolint(i, rule):
                    continue
                findings.append(Finding(sf.rel, i + 1, rule, RULES[rule]))
            # trkx-atomic-write reads the raw line: the ".ckpt"/manifest
            # evidence lives inside a string literal, which the stripped
            # view blanks out.
            if (DIRECT_FILE_OPEN.search(code) and CKPT_PATH.search(sf.raw[i])
                    and not is_exempt(sf.rel, "trkx-atomic-write")
                    and not sf.has_nolint(i, "trkx-atomic-write")):
                findings.append(Finding(
                    sf.rel, i + 1, "trkx-atomic-write",
                    RULES["trkx-atomic-write"]))
            # The critical-justification rule reads raw lines: the
            # justification *is* a comment.
            if OMP_CRITICAL.search(sf.raw[i]):
                prev = sf.raw[i - 1] if i > 0 else ""
                if not (COMMENT.search(sf.raw[i]) or COMMENT.search(prev)):
                    if not sf.has_nolint(i, "trkx-omp-critical"):
                        findings.append(Finding(
                            sf.rel, i + 1, "trkx-omp-critical",
                            RULES["trkx-omp-critical"]))
    return findings


def check_headers(root, compiler, findings):
    """Compile each src/ header standalone (twice, for the include-guard
    check): missing transitive includes surface here instead of as
    include-order landmines."""
    headers = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith(".hpp"):
                headers.append(os.path.relpath(
                    os.path.join(dirpath, name), root).replace(os.sep, "/"))
    headers.sort()
    flags = ["-std=c++20", "-fsyntax-only", "-fopenmp",
             "-I", os.path.join(root, "src")]
    failed = 0
    for rel in headers:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cpp", delete=False
        ) as tu:
            include = rel.removeprefix("src/")
            tu.write(f'#include "{include}"\n')
            tu.write(f'#include "{include}"\n')  # include-guard check
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [compiler, *flags, tu_path],
                capture_output=True,
                text=True,
                check=False,
            )
            if proc.returncode != 0:
                failed += 1
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                findings.append(Finding(
                    rel, 1, "trkx-header-standalone",
                    f"header does not compile standalone: {detail}"))
        finally:
            os.unlink(tu_path)
    print(f"lint: {len(headers) - failed}/{len(headers)} headers "
          "self-contained")

"""hot-path pass: the inference stages must not allocate or block.

Phase 2 of the cross-TU analyzer (see facts.py). The five inference
stage entry points (embed -> filter -> gnn predict -> build_tracks ->
fit_track) carry a ``TRKX_HOT`` annotation (util/annotations.hpp).
Everything in their transitive call closure is *hot*: a p50 latency
budget lives or dies on these frames. This pass walks the closure and
reports:

    trkx-hot-alloc   a heap allocation (new / malloc family /
                     make_unique / make_shared) reachable from a hot
                     entry point — hoist it to setup.
    trkx-hot-block   a strong blocking operation (join / sleep /
                     file IO / collective / condvar wait) reachable
                     from a hot entry point. ``parallel_for`` /
                     ``wait_all`` are exempt: blocking on the worker
                     pool is synchronous compute, not a stall.

std::vector growth, and with it every Matrix buffer (a std::vector with
a default-initialising allocator, so Matrix::uninit skips the
zero-fill), is exempt by the same policy that excludes bad_alloc from
the throw model. Hot
propagation follows the PR-8 resolution discipline: plain calls
propagate to every candidate, explicit-receiver method calls only when
resolution is unambiguous.
One-time setup inside a hot frame (first-call warmup, cache fill) is a
NOLINT with a reason, not a model change.
"""

from . import facts
from .common import Finding

RULES = {
    "trkx-hot-alloc": "heap allocation on a TRKX_HOT inference path",
    "trkx-hot-block": "blocking operation (join/sleep/IO/collective/"
                      "pool-wait) on a TRKX_HOT inference path",
    "trkx-hot-root": "a latency-critical module declares no TRKX_HOT "
                     "entry point, so its request path escapes this pass",
}

# Modules whose request/stage entry points must be TRKX_HOT-annotated.
# Without a root the closure walk never sees the module, and the
# alloc/block discipline silently stops applying to it — the serving
# request path (ServeServer::run_request) joined the pipeline stages
# under this contract in PR 10.
REQUIRED_HOT_MODULES = ("src/pipeline/", "src/serve/")


def run(tree):
    proj = facts.Project.for_tree(tree)
    findings = []
    for module in REQUIRED_HOT_MODULES:
        members = sorted(rel for rel in proj.files
                         if rel.replace("\\", "/").startswith(module))
        if not members:
            continue  # module absent from this tree (e.g. fixture subsets)
        if not any(proj.files[rel].hot_decls for rel in members):
            findings.append(Finding(
                members[0], 1, "trkx-hot-root",
                f"module {module} declares no TRKX_HOT entry point; "
                "annotate its request-path entry so the hot-path "
                "alloc/block discipline covers it"))
    hot = proj.hot_paths()
    for ff, path in sorted(hot.values(),
                           key=lambda fp: (fp[0].file, fp[0].start)):
        sf = tree.file(ff.file)
        for kind, li in ff.allocs:
            if sf.has_nolint(li, "trkx-hot-alloc"):
                continue
            findings.append(Finding(
                ff.file, li + 1, "trkx-hot-alloc",
                f"{kind} on hot path {path}; hoist it to setup"))
        for kind, strength, li, _ in ff.blocking:
            if strength != "strong" or kind == "pool-wait":
                continue
            if sf.has_nolint(li, "trkx-hot-block"):
                continue
            findings.append(Finding(
                ff.file, li + 1, "trkx-hot-block",
                f"{kind} on hot path {path}; inference frames must "
                "not stall"))
    return findings

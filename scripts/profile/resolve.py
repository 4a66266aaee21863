#!/usr/bin/env python3
"""Resolve a sigprof profile and group its samples by phase, tape op and kernel.

    python3 scripts/profile/resolve.py prof.1234.txt [--top 15]
    python3 scripts/profile/resolve.py --preload build/tests/libtrkx_sigprof.so \
        --out DIR [--require-kernel] -- ./binary args...

The second form runs the command with the library preloaded, its
profile written to DIR/sigprof.<pid>.txt, and resolves that profile.

Reads the file libtrkx_sigprof.so writes (see sigprof.cpp), names every
frame with addr2line (inlined frames included), then counts each sample
once per grouping:

  phase   evaluation when evaluate_edges or predict is on the stack,
          else the innermost of: sampling (src/sampling,
          sparse/sample.cpp, gather_sample), sync (Communicator,
          TimeoutBarrier, dist/gradient_sync.cpp), optimizer
          (nn/optimizer.cpp), or a Tape op or forward(), which counts as
          backward under Tape::backward and as forward otherwise; else
          other
  op      within forward and backward, the innermost Tape op on the stack
          (a backward closure counts as its op), or "accumulate" when only
          Tape::accumulate is there
  kernel  the outermost trkx::kernels::<table>_impl frame, which is the
          KernelTable entry the call dispatched to (with one OpenMP thread
          the whole stack is in the calling thread)

--require-kernel exits 1 unless some sample falls in a function named
after a KernelTable entry (the list is read from kernels.hpp), so a
broken unwinder or resolver fails loudly.
"""

import argparse
import collections
import functools
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KERNELS_HPP = os.path.join(HERE, "..", "..", "src", "tensor", "kernels",
                           "kernels.hpp")

NOT_OPS = {"backward", "emit", "accumulate", "node", "leaf", "has_grad",
           "activation_floats", "Tape"}
TAPE_OP = re.compile(r"trkx::Tape::(\w+)\(")
KERNEL = re.compile(r"trkx::kernels::(\w+)_impl::(\w+)")


def kernel_table_entries():
    """The KernelTable function-pointer fields, in declaration order."""
    with open(KERNELS_HPP) as f:
        text = f.read()
    body = text[text.index("struct KernelTable {"):]
    body = body[:body.index("\n};")]
    return [a or b for a, b in
            re.findall(r"(?:GemmFn\s+(\w+);|\(\*(\w+)\))", body)]


def load(path):
    meta, maps, samples = {}, [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0] == "#":
                continue
            if parts[0] == "map":
                maps.append((int(parts[1], 16), int(parts[2], 16),
                             int(parts[3], 16), " ".join(parts[4:])))
            elif parts[0] == "s":
                samples.append((int(parts[1]), [int(p, 16) for p in parts[2:]]))
            else:
                meta[parts[0]] = " ".join(parts[1:])
    return meta, sorted(maps), samples


@functools.lru_cache(maxsize=None)
def is_fixed_address(path):
    """True for a non-PIE executable (ELF type ET_EXEC), whose symbols sit
    at their run-time addresses."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return len(head) == 18 and head[:4] == b"\x7fELF" and head[16] == 2
    except OSError:
        return False


def resolve(maps, samples):
    """{pc: [(function, file), ...] innermost inline frame first}."""
    wanted = collections.defaultdict(set)  # path -> {(pc, file address)}
    for _, stack in samples:
        for depth, pc in enumerate(stack):
            for lo, hi, off, path in maps:
                if lo <= pc < hi:
                    # Return addresses point past their call: look up the
                    # call itself. Frame 2 is the interrupted instruction.
                    look = pc if depth <= 2 else pc - 1
                    addr = look if is_fixed_address(path) else look - lo + off
                    wanted[path].add((pc, addr))
                    break
    names = {}
    for path, pcs in wanted.items():
        pcs = sorted(pcs)
        if not os.path.exists(path):
            continue
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path]
            + [hex(a) for _, a in pcs],
            capture_output=True, text=True, check=False).stdout.splitlines()
        blocks, cur = [], None
        for line in out:
            if line.startswith("0x") and re.fullmatch(r"0x[0-9a-f]+", line):
                cur = []
                blocks.append(cur)
            elif cur is not None:
                cur.append(line)
        for (pc, _), block in zip(pcs, blocks):
            frames = [(block[i], block[i + 1] if i + 1 < len(block) else "")
                      for i in range(0, len(block), 2)]
            if frames and frames[0][0] != "??":
                names[pc] = frames
            else:
                names[pc] = [(f"{os.path.basename(path)}+{pc:x}", "")]
    return names


def short_name(fn):
    """A demangled function name without its return type and parameters:
    "void ns::f<T>(int) [clone ._omp_fn.0]" -> "ns::f<T>"."""
    fn = fn.replace("(anonymous namespace)", "{anon}")
    depth, start = 0, 0
    for i, ch in enumerate(fn):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return fn[start:i]
        elif ch == " " and depth == 0:
            start = i + 1
    return fn[start:]


SAMPLING = re.compile(r"/src/sampling/|/src/sparse/sample\.|gather_sample")
SYNC = re.compile(r"trkx::(Communicator|TimeoutBarrier)::|/src/dist/gradient_sync\.")
BACKWARD = re.compile(r"trkx::Tape::backward\(|trkx::TapeContext::backward\(")
TAPE = re.compile(r"trkx::Tape::|trkx::TapeContext::|::forward\(")


def phase_of(frames):
    """Evaluation when evaluate_edges or predict is on the stack (it runs
    forward passes of its own); otherwise the innermost phase marker."""
    text = [f"{fn}\t{src}" for fn, src in frames]
    if any(re.search(r"evaluate_edges|::predict\(", t) for t in text):
        return "evaluation"
    for t in text:  # innermost first
        if SAMPLING.search(t):
            return "sampling"
        if SYNC.search(t):
            return "sync"
        if "/src/nn/optimizer." in t:
            return "optimizer"
        if TAPE.search(t):
            return ("backward" if any(BACKWARD.search(u) for u in text)
                    else "forward")
    return "other"


def op_of(frames):
    accumulate = False
    for fn, _ in frames:  # innermost first
        m = TAPE_OP.search(fn)
        if not m:
            continue
        if m.group(1) == "accumulate":
            accumulate = True
        elif m.group(1) not in NOT_OPS:
            return m.group(1)
    return "accumulate" if accumulate else "(no tape op)"


def kernel_of(frames):
    found = None
    for fn, _ in frames:  # keep the outermost match
        m = KERNEL.search(fn)
        if m:
            found = f"{m.group(2)} ({m.group(1)})"
    return found


def report(path, top):
    meta, maps, samples = load(path)
    names = resolve(maps, samples)
    by_phase, by_op, by_kernel, by_leaf = (collections.Counter()
                                           for _ in range(4))
    threads = set()
    for tid, stack in samples:
        threads.add(tid)
        # Frames 0 and 1 are the SIGPROF handler and the signal trampoline.
        frames = [f for pc in stack[2:] for f in names.get(pc, [])]
        if not frames:
            by_phase["(unresolved)"] += 1
            continue
        phase = phase_of(frames)
        by_phase[phase] += 1
        if phase in ("forward", "backward"):
            by_op[f"{phase}: {op_of(frames)}"] += 1
        kernel = kernel_of(frames)
        if kernel:
            by_kernel[kernel] += 1
        # The innermost frame that is not a vector intrinsic.
        leaf = next((fn for fn, _ in frames if not fn.startswith("_mm")),
                    frames[0][0])
        by_leaf[short_name(leaf)] += 1
    return {"file": path, "exe": meta.get("exe", ""),
            "interval_us": int(meta.get("interval_us", "0") or 0),
            "samples": len(samples), "dropped": int(meta.get("dropped", "0")),
            "threads": len(threads), "phase": dict(by_phase.most_common()),
            "op": dict(by_op.most_common()),
            "kernel": dict(by_kernel.most_common()),
            "leaf": dict(by_leaf.most_common(top))}


def print_report(r, top):
    n = max(r["samples"], 1)
    print(f"sigprof {r['file']}: {r['exe']}")
    print(f"{r['samples']} samples on {r['threads']} threads, "
          f"{r['dropped']} dropped, interval asked {r['interval_us']} us "
          "(at least one kernel tick)")

    def table(title, counts, denom, limit=None):
        print(f"\n{title}")
        for name, c in list(counts.items())[:limit]:
            print(f"  {c:7d}  {100.0 * c / denom:5.1f} %  {name}")

    table("by phase (share of all samples)", r["phase"], n)
    fb = sum(c for p, c in r["phase"].items() if p in ("forward", "backward"))
    table("training forward + backward by tape op (share of those samples)",
          r["op"], max(fb, 1), top)
    table("by KernelTable kernel (share of all samples)", r["kernel"], n, top)
    table("top leaf functions (share of all samples)", r["leaf"], n, top)


def run_profiled(preload, out_dir, cmd):
    """Run cmd under the profiler; returns (its exit code, profile path)."""
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, LD_PRELOAD=os.path.abspath(preload),
               SIGPROF_OUT=os.path.join(os.path.abspath(out_dir),
                                        "sigprof.%p.txt"))
    proc = subprocess.Popen(cmd, env=env)
    code = proc.wait()
    return code, os.path.join(out_dir, f"sigprof.{proc.pid}.txt")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile", nargs="?", help="a profile file to resolve")
    ap.add_argument("--preload", help="libtrkx_sigprof.so: run and profile "
                    "the command after --")
    ap.add_argument("--out", default=".", help="directory for --preload runs")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--require-kernel", action="store_true",
                    help="exit 1 unless a sample names a KernelTable entry")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    if args.preload:
        cmd = argv[cut + 1:]
        if not cmd:
            ap.error("--preload needs a command after --")
        code, args.profile = run_profiled(args.preload, args.out, cmd)
        if code != 0 or not os.path.exists(args.profile):
            print(f"FAIL: {cmd[0]} exited {code}; profile {args.profile}")
            return 1
    elif not args.profile:
        ap.error("give a profile file, or --preload and a command")
    r = report(args.profile, args.top)
    print_report(r, args.top)
    if args.require_kernel:
        entries = set(kernel_table_entries())
        named = sorted({k.split(" ")[0] for k in r["kernel"]} & entries)
        if not named:
            print("FAIL: no sample names a KernelTable entry "
                  f"({len(r['kernel'])} kernel frames seen)")
            return 1
        print(f"\nKernelTable entries sampled: {', '.join(named)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

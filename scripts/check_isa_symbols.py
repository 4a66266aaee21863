#!/usr/bin/env python3
"""Fail if an ISA kernel object defines a weak symbol outside its own namespace.

kernels_avx2.cpp.o and kernels_avx512.cpp.o are the only objects built
with vector-ISA flags (src/tensor/CMakeLists.txt). A weak (COMDAT)
definition they carry, an inline function or template instantiation from
a shared header such as util/error.hpp or <string>, is compiled with
those flags, and the linker keeps one copy of it for the whole program:
if it keeps this one, baseline code runs AVX instructions and dies with
SIGILL on a host without them. Their own kernel namespaces
(trkx::kernels::avx2_impl, ::avx512_impl) are reached only through the
dispatch table, which checks the host first.

    python3 scripts/check_isa_symbols.py build/src/tensor/libtrkx_tensor.a
    python3 scripts/check_isa_symbols.py --selftest

Exit 0 when clean, 1 listing every offending symbol.
"""

import argparse
import re
import subprocess
import sys

# Archive member -> the namespace its weak definitions must live in.
MEMBERS = {
    "kernels_avx2.cpp.o": "trkx::kernels::avx2_impl::",
    "kernels_avx512.cpp.o": "trkx::kernels::avx512_impl::",
}
# The C++ personality routine's DWARF reference is weak in every object
# with exception tables and holds a pointer, not code.
ALLOWED = {"DW.ref.__gxx_personality_v0"}
# nm types of weak or unique definitions (w and v are undefined weak
# references, which define nothing).
WEAK_DEFINED = {"W", "V", "u"}

# nm -A -C: "<archive>:<member>:<value> <type> <name>".
LINE = re.compile(r"^.*?:([^:]+\.o):[0-9a-fA-F]*\s+([A-Za-z])\s+(.*)$")


def qualified_name(symbol):
    """The qualified name of a demangled symbol, without a leading return
    type, template arguments' spaces or the parameter list."""
    depth, start = 0, 0
    for i, ch in enumerate(symbol):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return symbol[start:i]
        elif ch == " " and depth == 0:
            start = i + 1
    return symbol[start:]


def offenders(nm_lines):
    """(member, symbol) for every weak definition outside its namespace."""
    bad = []
    for line in nm_lines:
        m = LINE.match(line)
        if not m:
            continue
        member, kind, symbol = m.groups()
        if member not in MEMBERS or kind not in WEAK_DEFINED:
            continue
        if symbol in ALLOWED:
            continue
        if not qualified_name(symbol).startswith(MEMBERS[member]):
            bad.append((member, symbol))
    return bad


def selftest():
    lines = [
        "lib.a:kernels_avx2.cpp.o:0000000000000000 V DW.ref.__gxx_personality_v0",
        "lib.a:kernels_avx2.cpp.o:0000000000000000 W trkx::kernels::avx2_impl::"
        "ew_add(float const*, float const*, float*, unsigned long)",
        "lib.a:kernels_avx2.cpp.o:0000000000000000 W void trkx::kernels::"
        "avx2_impl::gemm<trkx::kernels::avx2_impl::Avx2Tile>(float const*, "
        "float const*, float*, unsigned long, unsigned long, unsigned long, "
        "bool)",
        "lib.a:kernels_avx2.cpp.o:                 U trkx::detail::"
        "throw_check_failure(char const*, char const*, int)",
        "lib.a:kernels_avx2.cpp.o:                 w __pthread_key_create",
        "lib.a:dispatch.cpp.o:0000000000000000 W trkx::Error::~Error()",
        # Offenders: a shared header's inline function, a std template
        # instantiated over a kernel type, and the other ISA's namespace.
        "lib.a:kernels_avx2.cpp.o:0000000000000000 W trkx::detail::"
        "throw_check_failure(char const*, char const*, int, "
        "std::__cxx11::basic_string<char, std::char_traits<char>, "
        "std::allocator<char> > const&)",
        "lib.a:kernels_avx512.cpp.o:0000000000000000 W std::vector<trkx::"
        "kernels::avx512_impl::Tile, std::allocator<trkx::kernels::"
        "avx512_impl::Tile> >::~vector()",
        "lib.a:kernels_avx512.cpp.o:0000000000000000 W trkx::kernels::"
        "avx2_impl::relu_fwd(float const*, float*, unsigned long)",
    ]
    bad = offenders(lines)
    want = [lines[-3], lines[-2], lines[-1]]
    got = [f"lib.a:{member}:0000000000000000 W {symbol}" for member, symbol in bad]
    if got != want:
        print("selftest FAILED: flagged", *bad, sep="\n  ")
        return 1
    print("selftest OK: 3 seeded offenders flagged, 6 allowed lines passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("archive", nargs="?", help="static library to inspect")
    ap.add_argument("--nm", default="nm", help="nm binary (default: nm)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.archive:
        ap.error("an archive is required without --selftest")
    out = subprocess.run([args.nm, "-A", "-C", args.archive], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    seen = {m.group(1) for m in map(LINE.match, out) if m}
    missing = sorted(set(MEMBERS) - seen)
    if missing:
        print(f"{args.archive}: no member {', '.join(missing)}")
        return 1
    bad = offenders(out)
    for member, symbol in bad:
        print(f"{member}: weak definition outside its kernel namespace: {symbol}")
    if bad:
        return 1
    print(f"{args.archive}: ISA kernel objects define no shared weak symbols")
    return 0


if __name__ == "__main__":
    sys.exit(main())

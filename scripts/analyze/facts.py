"""facts.py — phase 1 of the cross-TU analyzer: per-file fact extraction.

trkx-analyze's original passes are per-file: each looks at one
translation unit in isolation. The concurrency and resource-flow
properties the lock-order / throw-boundary passes check are not like
that: a lock-order inversion is two TUs disagreeing about acquisition
order, and a throw inside an OpenMP region is only fatal because of
what its *callees* do. This module extracts per-file facts once —

  * function definitions (name, enclosing class, line extent),
  * call sites (a simple-name call graph),
  * lock acquisitions (trkx::LockGuard / UniqueLock) with brace-scope
    extents and the guarded mutex expression,
  * throw sites (throw / TRKX_CHECK / TRKX_CHECK_MSG /
    rethrow_exception) and guard extents that stop propagation
    (try { } catch (...) blocks and ExceptionBarrier::run callbacks),
  * blocking operations (condvar waits, joins, sleeps, file I/O,
    collectives, log macros) with a strong/weak classification,
  * OpenMP ``parallel`` regions and thread-entry launch sites,

— and builds the whole-program index (Project) that phase-2 passes
query: simple-name call resolution plus memoised transitive closures
for "which locks does calling F acquire", "can calling F throw", and
"does calling F block".

PR 9 adds three more fact kinds for the dataflow passes:

  * collective call sites (all_reduce / broadcast / barrier /
    all_gather) together with a *branch model* of the enclosing
    function: every ``if``/``else`` extent with its condition text,
    loop extents, and conditional early exits (return/continue/break)
    — what the collective-consistency pass needs to decide whether a
    collective executes on every rank,
  * allocation sites (``new`` / malloc-family / make_unique /
    make_shared) — the hot-path pass flags these,
  * RNG provenance: every ``Rng`` definition with its origin
    (``Rng::stream(...)`` keyed, ``split()`` of another stream,
    sequential seed construction, ``Rng&`` parameter), every draw
    site, and every call that hands an Rng to a callee — the
    rng-stream pass walks these to prove sampling randomness derives
    from a (rank, epoch, event, batch) stream key,

plus ``TRKX_HOT`` annotations (util/annotations.hpp) naming the
inference-stage entry points whose call closure must stay free of
heap allocation and blocking, and catch-handler classification
(does the handler rethrow/abort, or swallow?) for the
collective-unguarded rule.

Facts are regex-level, like every trkx-analyze pass: no compiler, no
AST. Extraction is tuned to this repo's idiom (annotated lock wrappers,
TRKX_* macros) and errs toward under-approximation, with NOLINT as the
escape hatch for the rest. Heap exhaustion (std::bad_alloc) is excluded
from the throw model by policy — otherwise every region that touches a
vector would flag.
"""

import bisect
import json
import re
from collections import deque

from .common import KEYWORDS
from .omp_sharing import PRAGMA, _join_pragma, _region_lines, parse_clauses

CONTROL = frozenset(
    "if for while switch catch return sizeof alignof decltype".split())

# Method names owned by the standard library (atomics, smart pointers,
# containers, condvars, streams). A call with an explicit receiver
# (``x.load()``) whose name is on this list never resolves into the
# project call graph: ``armed_.load()`` must not resolve to
# ``ParameterStore::load``. Project-owned wrappers of these shapes
# (CondVar::wait, stream flushes) are caught textually by the BLOCKING
# and CV_WAIT regexes, which do not depend on resolution.
STD_METHODS = frozenset("""
    load store exchange fetch_add fetch_sub compare_exchange_weak
    compare_exchange_strong reset release get swap at find count insert
    erase begin end size empty clear data c_str str front back push pop
    push_back pop_back emplace emplace_back resize reserve fill
    wait wait_for wait_until notify_one notify_all
    lock unlock try_lock join detach joinable
    open close good fail eof flush tie native
""".split())

FUNC_CAND = re.compile(r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
CLASS_DECL = re.compile(
    r"\b(?:class|struct)\s+(?:TRKX_\w+\s*(?:\([^()]*\))?\s*)?([A-Za-z_]\w*)")
CALL = re.compile(r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")
LOCK = re.compile(r"\b(LockGuard|UniqueLock)\s+(\w+)\s*[({]\s*([^;{}]*?)\s*[)}]")
CV_WAIT = re.compile(r"(\w+)\s*\.\s*wait(?:_for|_until)?\s*\(\s*(\w+)?")
THROW = re.compile(
    r"(?<![\w.])throw\b|\bTRKX_CHECK(?:_MSG)?\s*\(|\bthrow_check_failure\b"
    r"|\brethrow_exception\s*\(")
RETHROW_BARE = re.compile(r"(?<![\w.])throw\s*;")
CATCH_ALL = re.compile(r"\bcatch\s*\(\s*(?:\.\.\.|const\s+std::exception\b)")
RUN_CALL = re.compile(r"(\w+)\s*\.\s*run\s*\(")
RETHROW_CALL = re.compile(r"\w+\s*\.\s*rethrow\s*\(")
BARRIER_DECL = re.compile(r"\bExceptionBarrier\s+(\w+)")
THREAD_NEW = re.compile(r"\bstd::thread\s*[({]")
EMPLACE = re.compile(r"(\w+)\s*\.\s*emplace_back\s*\(")
THREAD_VEC_DECL = re.compile(r"\bstd::vector\s*<\s*std::thread\s*>\s+(\w+)")

# Blocking operations. "strong" kinds propagate through the call graph
# (calling a function that transitively blocks is itself blocking);
# "weak" kinds (log macros, stream flushes) are flagged only when they
# appear directly under a lock — the transitive version would be noise.
BLOCKING = (
    ("join", "strong", re.compile(r"\.\s*join\s*\(")),
    ("sleep", "strong", re.compile(r"\bsleep_(?:for|until)\s*\(")),
    ("file-io", "strong", re.compile(
        r"\bstd::[oi]?fstream\b|(?<![\w:])(?:fopen|fread|fwrite|fsync)"
        r"\s*\(")),
    ("collective", "strong", re.compile(
        r"\b(?:all_reduce|all_gather|arrive_and_wait)\s*\(")),
    ("pool-wait", "strong", re.compile(r"\b(?:parallel_for|wait_all)\s*\(")),
    ("flush", "weak", re.compile(r"\.\s*flush\s*\(\s*\)")),
    ("log", "weak", re.compile(r"\bTRKX_(?:INFO|WARN|ERROR|DEBUG)\b")),
)

# Collective call sites. The lookbehind permits an explicit receiver
# (``comm.all_reduce_sum(...)``) but rejects identifier tails
# (``add_row_broadcast``). all_reduce_* variants collapse to one kind:
# the consistency property is "same sequence of collective kinds on
# every rank", and sum-vs-scalar is a payload detail.
COLLECTIVE = re.compile(
    r"(?<![\w:])(all_reduce_sum|all_reduce_scalar|all_reduce|all_gather|"
    r"broadcast|barrier|arrive_and_wait)\s*\(")
COLLECTIVE_KIND = {"all_reduce_sum": "all_reduce",
                   "all_reduce_scalar": "all_reduce",
                   "arrive_and_wait": "barrier"}

# Heap-allocation sites for the hot-path pass. std::vector growth is
# excluded by the same policy that excludes bad_alloc from the throw
# model.
ALLOC_SITES = (
    ("new", re.compile(r"(?<![\w:.])new\s+[A-Za-z_(]")),
    ("malloc", re.compile(r"(?<![\w:.])(?:malloc|calloc|realloc)\s*\(")),
    ("make_unique", re.compile(r"\bmake_unique\s*<")),
    ("make_shared", re.compile(r"\bmake_shared\s*<")),
)

# RNG provenance. A definition's origin is one of: "stream" (keyed
# Rng::stream), "split" (derived from another var — chase the source),
# "seq" (sequential seed construction), "param" (Rng& argument — the
# caller decides). Draws on an unknown ``name_`` receiver resolve to
# "member" (sequential object state).
RNG_DEF = re.compile(r"(?<![\w:])Rng\s+([a-z_]\w*)\s*(?=[({=;])")
RNG_VEC_DEF = re.compile(r"\bstd::vector\s*<\s*Rng\s*>\s+(\w+)")
RNG_PARAM = re.compile(
    r"(?:\bstd::vector\s*<\s*Rng\s*>|(?<![\w:])Rng)\s*&\s*(\w+)")
RNG_STREAM = re.compile(r"\bRng::stream\s*\(")
RNG_SPLIT_FROM = re.compile(r"(\w+)\s*(?:\[[^\]]*\]\s*)?\.\s*split\s*\(")
RNG_VEC_PUSH = re.compile(
    r"(\w+)\s*\.\s*(?:push_back|emplace_back)\s*\(\s*(\w+)\s*\.\s*split\s*\(")
RNG_DRAW_METHODS = frozenset(
    "uniform uniform_index normal poisson bernoulli shuffle "
    "sample_without_replacement next_u64 split".split())
RNG_DRAW = re.compile(
    r"(\w+)\s*(?:\[[^\]]*\]\s*)?\.\s*(uniform|uniform_index|normal|"
    r"poisson|bernoulli|shuffle|sample_without_replacement|next_u64|"
    r"split)\s*\(")

# Hot-path annotation (util/annotations.hpp): marks an inference-stage
# entry point whose transitive call closure must stay allocation- and
# blocking-free.
HOT = re.compile(r"\bTRKX_HOT\b")

# Branch model tokens for the collective-consistency pass.
IF_TOKEN = re.compile(r"(?<![\w.])if\s*\(")
LOOP_TOKEN = re.compile(r"(?<![\w.])(?:for|while)\s*\(")
EXIT_TOKEN = re.compile(r"(?<![\w.])(?:return|continue|break)\b")


def _match(text, i, open_ch, close_ch):
    """Index of the bracket closing text[i] (which must be open_ch)."""
    depth = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def _scan_init_list(text, i):
    """Skip a constructor member-init list starting after ':'; return the
    index of the body '{' or None."""
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace() or c == ",":
            i += 1
            continue
        m = re.match(r"[A-Za-z_]\w*", text[i:])
        if not m:
            return None
        i += m.end()
        while i < n and text[i].isspace():
            i += 1
        if i < n and text[i] == "<":
            close = _match(text, i, "<", ">")
            if close is None:
                return None
            i = close + 1
            while i < n and text[i].isspace():
                i += 1
        if i >= n or text[i] not in "({":
            return None
        close = _match(text, i, text[i], ")" if text[i] == "(" else "}")
        if close is None:
            return None
        i = close + 1
        while i < n and text[i].isspace():
            i += 1
        if i < n and text[i] == "{":
            return i
    return None


def _find_body_open(text, i):
    """Scan past declaration decorations (const, noexcept, trailing
    return, TRKX_* attribute macros, member-init list) to the body '{';
    None if this turns out to be a declaration or expression."""
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "{":
            return i
        elif c in ";=":
            return None
        elif c == ":":
            if i + 1 < n and text[i + 1] == ":":
                i += 2
            else:
                return _scan_init_list(text, i + 1)
        elif c == "(":
            close = _match(text, i, "(", ")")
            if close is None:
                return None
            i = close + 1
        elif c == "<":
            close = _match(text, i, "<", ">")
            if close is None:
                return None
            i = close + 1
        elif c == "-" and i + 1 < n and text[i + 1] == ">":
            i += 2
        elif c == "[":
            close = _match(text, i, "[", "]")
            if close is None:
                return None
            i = close + 1
        elif c.isalnum() or c in "_&*,":
            i += 1
        else:
            return None
    return None


class Acq:
    """One lock acquisition with its brace-scope line extent."""

    __slots__ = ("kind", "var", "expr", "line", "scope_end")

    def __init__(self, kind, var, expr, line, scope_end):
        self.kind = kind
        self.var = var
        self.expr = expr
        self.line = line            # 0-based
        self.scope_end = scope_end  # 0-based inclusive


class Branch:
    """One ``if`` with its condition text and arm extents (0-based,
    inclusive). ``exit_then``/``exit_else`` record whether the arm
    contains a conditional early exit (return/continue/break)."""

    __slots__ = ("cond", "line", "then_ext", "else_ext",
                 "exit_then", "exit_else")

    def __init__(self, cond, line, then_ext, else_ext,
                 exit_then, exit_else):
        self.cond = cond
        self.line = line
        self.then_ext = then_ext
        self.else_ext = else_ext
        self.exit_then = exit_then
        self.exit_else = exit_else


class FunctionFacts:
    __slots__ = ("file", "name", "qual", "cls", "start", "end",
                 "calls", "locks", "throw_lines", "blocking",
                 "omp_regions", "thread_sites", "run_extents",
                 "rethrow_lines", "catch_extents", "has_bare_rethrow",
                 "collectives", "allocs", "branches", "loops",
                 "rng_defs", "rng_draws", "rng_pass", "catch_swallows")

    def __init__(self, file, name, cls, start, end):
        self.file = file
        self.name = name
        self.cls = cls
        self.qual = f"{cls}::{name}" if cls else name
        self.start = start  # 0-based header line
        self.end = end      # 0-based last body line
        self.calls = []         # (callee, line, is_method)
        self.locks = []         # [Acq]
        self.throw_lines = []   # [line]
        self.blocking = []      # (kind, strength, line, cv_lockvar|None)
        self.omp_regions = []   # (pragma_line, body_end_line)
        self.thread_sites = []  # (line, receiver, [(callee, is_method)])
        self.run_extents = []   # (receiver, start_line, end_line)
        self.rethrow_lines = []
        self.catch_extents = []  # (start_line, end_line) of guarded try
        self.has_bare_rethrow = False
        self.collectives = []   # (kind, line)
        self.allocs = []        # (kind, line)
        self.branches = []      # [Branch]
        self.loops = []         # (start_line, end_line)
        self.rng_defs = {}      # var -> (origin, split_src|None, line)
        self.rng_draws = []     # (var, method, line)
        self.rng_pass = []      # (callee, var, line, is_method)
        self.catch_swallows = []  # bool, parallel to catch_extents

    def guard_extents(self, barrier_names):
        """Line extents within which a throw cannot escape this function:
        try blocks with a catch-all handler, plus ExceptionBarrier::run
        callback arguments."""
        extents = list(self.catch_extents)
        for recv, s, e in self.run_extents:
            if recv in barrier_names or recv.rstrip("_").endswith("barrier"):
                extents.append((s, e))
        return extents


class FileFacts:
    __slots__ = ("rel", "functions", "barrier_decls", "thread_vec_decls",
                 "hot_decls")

    def __init__(self, rel):
        self.rel = rel
        self.functions = []
        self.barrier_decls = set()
        self.thread_vec_decls = set()
        self.hot_decls = set()  # quals of TRKX_HOT-annotated declarations


def _line_offsets(code):
    starts = []
    off = 0
    for line in code:
        starts.append(off)
        off += len(line) + 1
    return starts


def _line_end_depths(code):
    depths = []
    d = 0
    for line in code:
        d += line.count("{") - line.count("}")
        depths.append(d)
    return depths


def _class_extents(text):
    out = []
    for m in CLASS_DECL.finditer(text):
        i = m.end()
        n = len(text)
        # scan to '{' (body) or ';' (forward decl), skipping base clause
        while i < n and text[i] not in "{;":
            if text[i] == "(":  # macro args in the decl
                close = _match(text, i, "(", ")")
                if close is None:
                    break
                i = close + 1
            else:
                i += 1
        if i >= n or text[i] != "{":
            continue
        close = _match(text, i, "{", "}")
        if close is not None:
            out.append((m.group(1), i, close))
    return out


def _scan_functions(sf):
    """Find function definitions (incl. out-of-line members and in-class
    methods; lambdas are flattened into their enclosing function)."""
    text = "\n".join(sf.code)
    starts = _line_offsets(sf.code)

    def line_of(pos):
        return bisect.bisect_right(starts, pos) - 1

    classes = _class_extents(text)
    funcs = []
    resume = 0
    for m in FUNC_CAND.finditer(text):
        if m.start() < resume:
            continue
        # Destructors keep their '~': ``new X()`` / ``X(...)`` call sites
        # must resolve to the constructor only, never the destructor —
        # conflating them drags shutdown paths (stop/join in ~X) into
        # every closure that constructs an X.
        name = re.sub(r"\s+", "", m.group(1))
        short = name.rsplit("::", 1)[-1]
        bare = short.lstrip("~")
        if bare in KEYWORDS or bare in CONTROL or bare.isupper():
            continue
        j = m.start(1) - 1
        while j >= 0 and text[j] in " \t":
            j -= 1
        if j >= 0 and (text[j] == "." or
                       (text[j] == ">" and j > 0 and text[j - 1] == "-")):
            continue  # method call, not a definition
        paren = text.index("(", m.end(1))
        close = _match(text, paren, "(", ")")
        if close is None:
            continue
        body_open = _find_body_open(text, close + 1)
        if body_open is None:
            continue
        body_close = _match(text, body_open, "{", "}")
        if body_close is None:
            body_close = len(text) - 1
        cls = ""
        if "::" in name:
            cls = name.rsplit("::", 1)[0].rsplit("::", 1)[-1]
        else:
            best = None
            for cname, copen, cclose in classes:
                if copen < m.start() < cclose:
                    if best is None or copen > best[1]:
                        best = (cname, copen)
            if best:
                cls = best[0]
        funcs.append(FunctionFacts(sf.rel, short, cls,
                                   line_of(m.start()), line_of(body_close)))
        resume = body_close
    return funcs


def _paren_extent_lines(sf, line, col):
    """(start_line, end_line) of the balanced paren group opening at
    sf.code[line][col]."""
    depth = 0
    for li in range(line, len(sf.code)):
        s = sf.code[li][col:] if li == line else sf.code[li]
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return line, li
    return line, len(sf.code) - 1


def _block_extent(sf, start):
    """Last line of the brace block starting at/after `start`."""
    depth = 0
    seen = False
    for li in range(start, len(sf.code)):
        for ch in sf.code[li]:
            if ch == "{":
                depth += 1
                seen = True
            elif ch == "}":
                depth -= 1
                if seen and depth == 0:
                    return li
        if not seen and ";" in sf.code[li]:
            return li
    return len(sf.code) - 1


def _call_kind(code, start):
    """Classify a CALL match at code[start]: 'method' (explicit receiver
    other than this), 'call' (plain, qualified, or this->), or None for
    declarations — ``Type name(...)`` where the token before the name is
    a non-keyword identifier or a template close is a variable with a
    paren initializer, not a call."""
    j = start - 1
    while j >= 0 and code[j] in " \t":
        j -= 1
    if j < 0:
        return "call"
    c = code[j]
    if c == "." or (c == ">" and j > 0 and code[j - 1] == "-"):
        k = j - (1 if c == "." else 2)
        while k >= 0 and code[k] in " \t":
            k -= 1
        e = k
        while k >= 0 and (code[k].isalnum() or code[k] == "_"):
            k -= 1
        return "call" if code[k + 1:e + 1] == "this" else "method"
    if c == ">":
        return None  # `std::vector<T> name(...)` declaration
    if c.isalnum() or c == "_":
        k = j
        while k >= 0 and (code[k].isalnum() or code[k] == "_"):
            k -= 1
        if code[k + 1:j + 1] not in KEYWORDS | CONTROL:
            return None  # `Type name(...)` declaration
    return "call"


def _stmt_extent(text, i):
    """(start, end_exclusive) character span of the statement beginning
    at/after text[i]: a braced block, an if/else chain (so an ``else
    if`` arm covers the whole nested chain), or a plain statement up to
    its ';'."""
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    if i >= n:
        return i, i
    if text[i] == "{":
        close = _match(text, i, "{", "}")
        return i, (close + 1 if close is not None else n)
    if re.match(r"if\b", text[i:]):
        p = text.find("(", i)
        if p == -1:
            return i, n
        close = _match(text, p, "(", ")")
        if close is None:
            return i, n
        _, e = _stmt_extent(text, close + 1)
        j = e
        while j < n and text[j].isspace():
            j += 1
        if (text[j:j + 4] == "else"
                and not (j + 4 < n
                         and (text[j + 4].isalnum() or text[j + 4] == "_"))):
            _, e = _stmt_extent(text, j + 4)
        return i, e
    depth_close = {"(": ")", "{": "}", "[": "]"}
    j = i
    while j < n:
        c = text[j]
        if c in depth_close:
            close = _match(text, j, c, depth_close[c])
            if close is None:
                return i, n
            j = close + 1
            continue
        if c == ";":
            return i, j + 1
        if c == "}":
            return i, j  # ran off the enclosing block
        j += 1
    return i, n


def _extract_branches(sf, ff, text, starts):
    """Populate ff.branches / ff.loops from the joined file text."""
    def line_of(pos):
        return bisect.bisect_right(starts, pos) - 1

    lo = starts[ff.start]
    hi = starts[ff.end] + len(sf.code[ff.end])
    n = len(text)
    for m in IF_TOKEN.finditer(text, lo, hi):
        p = text.find("(", m.start())
        close = _match(text, p, "(", ")")
        if close is None:
            continue
        cond = re.sub(r"\s+", " ", text[p + 1:close]).strip()
        ts, te = _stmt_extent(text, close + 1)
        es = ee = None
        j = te
        while j < n and text[j].isspace():
            j += 1
        if (text[j:j + 4] == "else"
                and not (j + 4 < n
                         and (text[j + 4].isalnum() or text[j + 4] == "_"))):
            es, ee = _stmt_extent(text, j + 4)
        then_ext = (line_of(ts), line_of(max(ts, te - 1)))
        else_ext = (None if es is None
                    else (line_of(es), line_of(max(es, ee - 1))))
        exit_then = bool(EXIT_TOKEN.search(text, ts, te))
        exit_else = (bool(EXIT_TOKEN.search(text, es, ee))
                     if es is not None else False)
        ff.branches.append(Branch(cond, line_of(m.start()), then_ext,
                                  else_ext, exit_then, exit_else))
    for m in LOOP_TOKEN.finditer(text, lo, hi):
        p = text.find("(", m.start())
        close = _match(text, p, "(", ")")
        if close is None:
            continue
        s, e = _stmt_extent(text, close + 1)
        ff.loops.append((line_of(s), line_of(max(s, e - 1))))


def _handler_swallows(sf, blk_end):
    """True if the catch-all handler whose try block ends at blk_end
    neither rethrows nor aborts — i.e. it swallows the exception, which
    silently skips any collective the unwound path would have reached."""
    window = "\n".join(sf.code[blk_end:min(blk_end + 40, len(sf.code))])
    m = re.search(r"\bcatch\s*\(", window)
    if not m:
        return False
    p = window.find("(", m.start())
    close = _match(window, p, "(", ")")
    if close is None:
        return False
    b = window.find("{", close)
    if b == -1:
        return False
    bclose = _match(window, b, "{", "}")
    body = window[b:bclose] if bclose is not None else window[b:]
    return not re.search(r"(?<![\w.])throw\b|\brethrow|\babort\s*\(", body)


def _extract_function_body(sf, ff, end_depths):
    # Rng& parameters: scanned from the signature lines before the body
    # so defs precede draws/passes lexically, as in the source.
    for li in range(ff.start, min(ff.start + 3, ff.end) + 1):
        for m in RNG_PARAM.finditer(sf.code[li]):
            ff.rng_defs.setdefault(m.group(1), ("param", None, li))
    lines = range(ff.start, ff.end + 1)
    for li in lines:
        code = sf.code[li]
        if code.lstrip().startswith("#"):
            continue
        for m in RNG_DEF.finditer(code):
            if li == ff.start:
                continue  # `Rng make_rng(...)` return type, not a def
            rest = code[m.end(1):]
            if RNG_STREAM.search(rest):
                origin = ("stream", None, li)
            else:
                sm = RNG_SPLIT_FROM.search(rest)
                origin = (("split", sm.group(1), li) if sm
                          else ("seq", None, li))
            ff.rng_defs.setdefault(m.group(1), origin)
        for m in RNG_VEC_DEF.finditer(code):
            ff.rng_defs.setdefault(m.group(1), ("seq", None, li))
        for m in RNG_VEC_PUSH.finditer(code):
            if m.group(1) in ff.rng_defs:
                ff.rng_defs[m.group(1)] = ("split", m.group(2), li)
        for m in RNG_DRAW.finditer(code):
            ff.rng_draws.append((m.group(1), m.group(2), li))
        for m in CALL.finditer(code):
            callee = m.group(1)
            short = callee.rsplit("::", 1)[-1]
            if short in KEYWORDS or short in CONTROL or short.isupper():
                continue
            kind = _call_kind(code, m.start(1))
            if kind is None:
                continue
            ff.calls.append((callee, li, kind == "method"))
            if ff.rng_defs and short not in RNG_DRAW_METHODS \
                    and short not in ("Rng", "stream"):
                # Which Rng vars this call receives (same-line args only
                # — an under-approximation by policy).
                paren = m.end() - 1
                close = None
                depth = 0
                for idx in range(paren, len(code)):
                    if code[idx] == "(":
                        depth += 1
                    elif code[idx] == ")":
                        depth -= 1
                        if depth == 0:
                            close = idx
                            break
                seg = code[paren:close] if close else code[paren:]
                for var in ff.rng_defs:
                    if re.search(rf"(?<![\w.]){re.escape(var)}\b", seg):
                        ff.rng_pass.append((callee, var, li,
                                            kind == "method"))
        for m in LOCK.finditer(code):
            depth = end_depths[li]
            scope_end = ff.end
            for lj in range(li + 1, ff.end + 1):
                if end_depths[lj] < depth:
                    scope_end = lj
                    break
            ff.locks.append(Acq(m.group(1), m.group(2), m.group(3),
                                li, scope_end))
        if THROW.search(code):
            ff.throw_lines.append(li)
        if RETHROW_BARE.search(code):
            ff.has_bare_rethrow = True
        m = CV_WAIT.search(code)
        if m:
            ff.blocking.append(("condvar-wait", "strong", li, m.group(2)))
        for kind, strength, rx in BLOCKING:
            if rx.search(code):
                ff.blocking.append((kind, strength, li, None))
        for m in RUN_CALL.finditer(code):
            paren = code.index("(", m.end(0) - 1)
            s, e = _paren_extent_lines(sf, li, paren)
            ff.run_extents.append((m.group(1), s, e))
        if RETHROW_CALL.search(code):
            ff.rethrow_lines.append(li)
        if li != ff.start:
            for m in COLLECTIVE.finditer(code):
                if _call_kind(code, m.start(1)) is None:
                    continue
                name = m.group(1)
                ff.collectives.append((COLLECTIVE_KIND.get(name, name), li))
        for kind, rx in ALLOC_SITES:
            if rx.search(code):
                ff.allocs.append((kind, li))
        if re.search(r"(?<!\w)try\b", code):
            blk_end = _block_extent(sf, li)
            tail = "\n".join(sf.code[blk_end:min(blk_end + 4, len(sf.code))])
            if CATCH_ALL.search(tail) or CATCH_ALL.search(code):
                ff.catch_extents.append((li, blk_end))
                ff.catch_swallows.append(_handler_swallows(sf, blk_end))
        if THREAD_NEW.search(code) or EMPLACE.search(code):
            recv = "std::thread" if THREAD_NEW.search(code) else \
                EMPLACE.search(code).group(1)
            mm = THREAD_NEW.search(code) or EMPLACE.search(code)
            try:
                paren = code.index("(", mm.start())
            except ValueError:
                continue
            s, e = _paren_extent_lines(sf, li, paren)
            callees = []
            for lj in range(s, e + 1):
                seg = sf.code[lj]
                for cm in CALL.finditer(seg):
                    cshort = cm.group(1).rsplit("::", 1)[-1]
                    if (cshort in KEYWORDS or cshort in CONTROL
                            or cshort.isupper()
                            or cshort in ("thread", "emplace_back")):
                        continue
                    ckind = _call_kind(seg, cm.start(1))
                    if ckind is None:
                        continue
                    callees.append((cshort, ckind == "method"))
            ff.thread_sites.append((li, recv, callees))


def extract_file(sf):
    fx = FileFacts(sf.rel)
    fx.functions = _scan_functions(sf)
    end_depths = _line_end_depths(sf.code)
    text = "\n".join(sf.code)
    starts = _line_offsets(sf.code)
    for ff in fx.functions:
        _extract_function_body(sf, ff, end_depths)
        _extract_branches(sf, ff, text, starts)
    fx.barrier_decls.update(BARRIER_DECL.findall(text))
    fx.thread_vec_decls.update(THREAD_VEC_DECL.findall(text))
    # TRKX_HOT-annotated declarations (the definition may live in
    # another TU; Project seeds the hot closure by qualified name).
    classes = _class_extents(text)
    for m in HOT.finditer(text):
        hline = bisect.bisect_right(starts, m.start()) - 1
        if sf.code[hline].lstrip().startswith("#"):
            continue  # the macro's own #define
        window_end = starts[min(hline + 2, len(sf.code) - 1)] + \
            len(sf.code[min(hline + 2, len(sf.code) - 1)])
        mm = FUNC_CAND.search(text, m.end(), window_end)
        if not mm:
            continue
        name = re.sub(r"\s+", "", mm.group(1)).rsplit("::", 1)[-1]
        name = name.lstrip("~")
        if name in KEYWORDS or name in CONTROL or name.isupper():
            continue
        cls = ""
        best = None
        for cname, copen, cclose in classes:
            if copen < m.start() < cclose:
                if best is None or copen > best[1]:
                    best = (cname, copen)
        if best:
            cls = best[0]
        fx.hot_decls.add(f"{cls}::{name}" if cls else name)
    # OpenMP parallel regions, assigned to the containing function.
    for i, code in enumerate(sf.code):
        if not PRAGMA.match(code):
            continue
        pragma_text, last = _join_pragma(sf, i)
        directive, _ = parse_clauses(pragma_text)
        if not directive or directive[0] != "parallel":
            continue
        region = _region_lines(sf, last + 1)
        body_end = region[-1][0] if region else last
        owner = None
        for ff in fx.functions:
            if ff.start <= i <= ff.end:
                if owner is None or ff.start > owner.start:
                    owner = ff
        if owner is not None:
            owner.omp_regions.append((i, body_end))
    return fx


class Project:
    """Whole-program index over per-file facts, with memoised closures."""

    _cache = {}

    def __init__(self, tree):
        self.tree = tree
        self.files = {}
        self.functions = []
        self.by_short = {}
        self.by_qual = {}
        self.barrier_names = set()
        self.thread_vec_names = set()
        self.hot_roots = set()
        for sf in tree.files():
            fx = extract_file(sf)
            self.files[sf.rel] = fx
            self.barrier_names.update(fx.barrier_decls)
            self.thread_vec_names.update(fx.thread_vec_decls)
            self.hot_roots.update(fx.hot_decls)
            for ff in fx.functions:
                self.functions.append(ff)
                self.by_short.setdefault(ff.name, []).append(ff)
                self.by_qual.setdefault(ff.qual, []).append(ff)
        self._throws = {}
        self._locks = {}
        self._blocks = {}
        self._colls = {}
        self._rngp = {}
        self._hot = None

    @classmethod
    def for_tree(cls, tree):
        key = id(tree)
        if key not in cls._cache:
            cls._cache[key] = cls(tree)
        return cls._cache[key]

    # -- resolution ----------------------------------------------------

    def resolve(self, ff, name, limit=4):
        """Candidate definitions for a call to `name` from inside `ff`.
        Same-class members win; otherwise all same-short-name functions
        (capped) — a deliberate over-approximation. A ``std::``-qualified
        name is the standard library's and resolves to nothing: falling
        back to the short name would bind ``std::tanh`` to a project
        ``Tape::tanh``."""
        name = name.strip()
        if name.lstrip(":").startswith("std::"):
            return []
        if "::" in name:
            short = name.rsplit("::", 1)[-1]
            cands = self.by_qual.get(name) or self.by_short.get(short, [])
            return cands[:limit]
        if ff is not None and ff.cls:
            q = f"{ff.cls}::{name}"
            if q in self.by_qual:
                return self.by_qual[q][:limit]
        return self.by_short.get(name, [])[:limit]

    def targets(self, ff, callee, is_method):
        """(candidates, unanimous) for one call site. Method calls with
        a std-owned name never resolve, and the rest skip the same-class
        shortcut (the receiver is explicitly NOT this) and require
        *every* short-name candidate to agree before a property
        propagates — the receiver's type is unknown, so ``a.cols()``
        matching both Matrix::cols and the throwing Var::cols proves
        nothing."""
        short = callee.rsplit("::", 1)[-1]
        if is_method:
            if short in STD_METHODS:
                return [], False
            cands = [t for t in self.by_short.get(short, [])[:4]
                     if t is not ff]
            return cands, len(cands) > 1
        cands = [t for t in self.resolve(ff, callee) if t is not ff]
        return cands, False

    def call_throws(self, ff, callee, is_method):
        """Example path if this call site can raise, else None."""
        cands, unanimous = self.targets(ff, callee, is_method)
        paths = [self.throws(t) for t in cands]
        hits = [p for p in paths if p]
        if not hits or (unanimous and len(hits) < len(paths)):
            return None
        return hits[0]

    def call_locks(self, ff, callee, is_method):
        """{lock_id: path} this call site can acquire."""
        cands, unanimous = self.targets(ff, callee, is_method)
        dicts = [self.locks_acquired(t) for t in cands]
        if not dicts:
            return {}
        if unanimous:
            common = set(dicts[0])
            for d in dicts[1:]:
                common &= set(d)
            return {lid: dicts[0][lid] for lid in common}
        out = {}
        for d in dicts:
            for lid, path in d.items():
                out.setdefault(lid, path)
        return out

    def call_blocks(self, ff, callee, is_method):
        """Example (kind, path) if this call site can block, else None."""
        cands, unanimous = self.targets(ff, callee, is_method)
        results = [self.blocks(t) for t in cands]
        hits = [r for r in results if r]
        if not hits or (unanimous and len(hits) < len(results)):
            return None
        return hits[0]

    # -- transitive closures -------------------------------------------

    def _unguarded(self, ff, lines):
        guards = ff.guard_extents(self.barrier_names)
        return [li for li in lines
                if not any(s <= li <= e for s, e in guards)]

    def throws(self, ff, _stack=None):
        """Example path string if calling ff can raise, else None.
        Propagation stops at guard extents (catch-all / barrier.run)."""
        key = id(ff)
        if key in self._throws:
            return self._throws[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return None
        stack.add(key)
        result = None
        if self._unguarded(ff, ff.throw_lines):
            result = ff.qual
        else:
            guards = ff.guard_extents(self.barrier_names)
            for callee, li, is_method in ff.calls:
                if any(s <= li <= e for s, e in guards):
                    continue
                cands, unanimous = self.targets(ff, callee, is_method)
                paths = [self.throws(t, stack) for t in cands]
                hits = [p for p in paths if p]
                if hits and not (unanimous and len(hits) < len(paths)):
                    result = f"{ff.qual} -> {hits[0]}"
                    break
        stack.discard(key)
        self._throws[key] = result
        return result

    def locks_acquired(self, ff, _stack=None):
        """{lock_id: path} for every lock calling ff can acquire."""
        key = id(ff)
        if key in self._locks:
            return self._locks[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return {}
        stack.add(key)
        out = {}
        for acq in ff.locks:
            out.setdefault(lock_id(acq.expr, ff), ff.qual)
        for callee, li, is_method in ff.calls:
            cands, unanimous = self.targets(ff, callee, is_method)
            dicts = [self.locks_acquired(t, stack) for t in cands]
            if not dicts:
                continue
            if unanimous:
                common = set(dicts[0])
                for d in dicts[1:]:
                    common &= set(d)
                for lid in common:
                    out.setdefault(lid, f"{ff.qual} -> {dicts[0][lid]}")
            else:
                for d in dicts:
                    for lid, path in d.items():
                        out.setdefault(lid, f"{ff.qual} -> {path}")
        stack.discard(key)
        self._locks[key] = out
        return out

    def blocks(self, ff, _stack=None):
        """Example (kind, path) if calling ff can block (strong kinds
        only), else None."""
        key = id(ff)
        if key in self._blocks:
            return self._blocks[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return None
        stack.add(key)
        result = None
        for kind, strength, li, _ in ff.blocking:
            if strength == "strong":
                result = (kind, ff.qual)
                break
        if result is None:
            for callee, li, is_method in ff.calls:
                cands, unanimous = self.targets(ff, callee, is_method)
                subs = [self.blocks(t, stack) for t in cands]
                hits = [s for s in subs if s]
                if hits and not (unanimous and len(hits) < len(subs)):
                    result = (hits[0][0], f"{ff.qual} -> {hits[0][1]}")
                    break
        stack.discard(key)
        self._blocks[key] = result
        return result

    def collectives_reached(self, ff, _stack=None):
        """{collective_kind: path} reachable by calling ff. The
        Communicator implementation itself contributes nothing: callers
        see their own textual call site (``comm.all_reduce_sum(...)``)
        via the COLLECTIVE regex, and walking into the implementation
        would conflate the internal barrier/exchange sequence with the
        caller-visible kind. Ambiguous method calls (multiple
        candidates) do not propagate — a wrong resolution here would
        mark arbitrary callers rank-divergent."""
        if "communicator" in ff.file.replace("\\", "/"):
            return {}
        key = id(ff)
        if key in self._colls:
            return self._colls[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return {}
        stack.add(key)
        out = {}
        for kind, li in ff.collectives:
            out.setdefault(kind, ff.qual)
        for callee, li, is_method in ff.calls:
            cands, unanimous = self.targets(ff, callee, is_method)
            if is_method and len(cands) != 1:
                continue
            for t in cands:
                for k, path in self.collectives_reached(t, stack).items():
                    out.setdefault(k, f"{ff.qual} -> {path}")
        stack.discard(key)
        self._colls[key] = out
        return out

    def hot_paths(self):
        """{id(ff): (ff, path)} for every function in the transitive
        call closure of the TRKX_HOT-annotated entry points. Plain
        calls propagate to every candidate; explicit-receiver method
        calls only when resolution is unambiguous (one candidate) — a
        mis-resolved receiver would drag unrelated code into the hot
        set."""
        if self._hot is not None:
            return self._hot
        seeds = []
        for q in sorted(self.hot_roots):
            cands = self.by_qual.get(q)
            if not cands:
                cands = self.by_short.get(q.rsplit("::", 1)[-1], [])
            seeds.extend(cands)
        hot = {}
        dq = deque((ff, ff.qual) for ff in seeds)
        while dq:
            ff, path = dq.popleft()
            if id(ff) in hot:
                continue
            hot[id(ff)] = (ff, path)
            for callee, li, is_method in ff.calls:
                cands, _ = self.targets(ff, callee, is_method)
                if is_method and len(cands) != 1:
                    continue
                for t in cands:
                    if id(t) not in hot:
                        dq.append((t, f"{path} -> {t.qual}"))
        self._hot = hot
        return hot

    def rng_origin(self, ff, var):
        """Terminal origin of an Rng variable in ff: 'stream', 'seq',
        'param', 'member', or 'unknown' — chasing split() derivations
        back to their source."""
        seen = set()
        while True:
            if var in seen:
                return "unknown"
            seen.add(var)
            d = ff.rng_defs.get(var)
            if d is None:
                return "member" if var.endswith("_") else "unknown"
            origin, src, _li = d
            if origin == "split" and src:
                var = src
                continue
            return origin

    def rng_param_draws(self, ff, _stack=None):
        """True if calling ff consumes randomness from one of its own
        Rng& parameters — directly, or by forwarding the parameter to a
        callee that does."""
        key = id(ff)
        if key in self._rngp:
            return self._rngp[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return False
        stack.add(key)
        result = False
        for var, _method, _li in ff.rng_draws:
            if self.rng_origin(ff, var) == "param":
                result = True
                break
        if not result:
            for callee, var, li, is_method in ff.rng_pass:
                if self.rng_origin(ff, var) != "param":
                    continue
                cands, _ = self.targets(ff, callee, is_method)
                if is_method and len(cands) != 1:
                    continue
                if any(self.rng_param_draws(t, stack) for t in cands):
                    result = True
                    break
        stack.discard(key)
        self._rngp[key] = result
        return result

    # -- serialization -------------------------------------------------

    def to_json(self):
        files = {}
        for rel, fx in sorted(self.files.items()):
            files[rel] = {
                "functions": [{
                    "name": ff.name, "qual": ff.qual, "class": ff.cls,
                    "start": ff.start + 1, "end": ff.end + 1,
                    "calls": [[c, li + 1, m] for c, li, m in ff.calls],
                    "locks": [{
                        "kind": a.kind, "var": a.var, "mutex": a.expr,
                        "id": lock_id(a.expr, ff),
                        "line": a.line + 1, "scope_end": a.scope_end + 1,
                    } for a in ff.locks],
                    "throw_lines": [li + 1 for li in ff.throw_lines],
                    "blocking": [[k, s, li + 1]
                                 for k, s, li, _ in ff.blocking],
                    "omp_regions": [[s + 1, e + 1]
                                    for s, e in ff.omp_regions],
                    "thread_sites": [[li + 1, recv,
                                      [c for c, _ in callees]]
                                     for li, recv, callees
                                     in ff.thread_sites],
                    "collectives": [[k, li + 1]
                                    for k, li in ff.collectives],
                    "allocs": [[k, li + 1] for k, li in ff.allocs],
                    "branches": [{
                        "cond": b.cond, "line": b.line + 1,
                        "then": [b.then_ext[0] + 1, b.then_ext[1] + 1],
                        "else": (None if b.else_ext is None else
                                 [b.else_ext[0] + 1, b.else_ext[1] + 1]),
                        "exit_then": b.exit_then,
                        "exit_else": b.exit_else,
                    } for b in ff.branches],
                    "loops": [[s + 1, e + 1] for s, e in ff.loops],
                    "rng_defs": {var: {"origin": o, "from": src,
                                       "line": li + 1}
                                 for var, (o, src, li)
                                 in sorted(ff.rng_defs.items())},
                    "rng_draws": [[var, meth, li + 1]
                                  for var, meth, li in ff.rng_draws],
                    "rng_pass": [[callee, var, li + 1]
                                 for callee, var, li, _m in ff.rng_pass],
                } for ff in fx.functions],
            }
        return json.dumps({
            "schema": "trkx-facts-v2",
            "barrier_names": sorted(self.barrier_names),
            "thread_vector_members": sorted(self.thread_vec_names),
            "hot_roots": sorted(self.hot_roots),
            "files": files,
        }, indent=1, sort_keys=True)


def lock_id(expr, ff):
    """Canonical cross-TU identity for a mutex expression.

    Members (trailing underscore) are qualified by the enclosing class —
    the same class's methods in .hpp and .cpp agree. ``g_``-prefixed
    globals are project-global by name. Everything else (locals, fields
    of local structs) is file-scoped, which under-approximates aliasing
    across files but keeps false cycles out."""
    e = expr.strip().replace("this->", "")
    m = re.search(r"([A-Za-z_]\w*)\s*$", e)
    name = m.group(1) if m else e
    if name.startswith("g_"):
        return name
    if name.endswith("_") and ff.cls:
        return f"{ff.cls}::{name}"
    return f"{ff.file}::{name}"

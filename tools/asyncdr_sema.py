#!/usr/bin/env python3
"""asyncdr static analyzer: model conformance and semantic determinism.

The simulator's claims (a run is a pure function of (config, seed), every bit
taken from the source is query-accounted, time is virtual) are properties the
compiler cannot check. This tool encodes them as rules over the source tree,
so a violation fails CI instead of silently invalidating every experiment
downstream. Two rule families share one file model, one suppression grammar,
one baseline and one SARIF run:

  DR001-DR012  line-level model conformance over src/, bench/, examples/:
               wall-clock and randomness sources, source internals, console
               I/O, header/include/namespace hygiene, raw throws, phase
               accounting, threads, persistence, cross-world sharing
  SA001-SA004  structure over src/: an interprocedural call graph rooted at
               the model's entry namespaces (SA001 purity-reachability), the
               static types behind every range-for (SA002 ordered-iteration),
               journal appends versus state mutation (SA003 wal-ordering),
               and what campaign worker code shares (SA004)

See --list-rules for the full catalog with rationales.

Frontends (they differ only in how the SA rules see structure; the DR rules
read the same stripped text under both):
  libclang   precise AST via clang.cindex over compile_commands.json
             (exit 77 when the bindings are unavailable, so ctest can SKIP)
  fallback   conservative pure-Python C++ indexer, no dependencies; less
             precise (documented in DESIGN.md) but catches the idioms this
             tree actually uses, so the zero-findings gate runs everywhere
  auto       libclang when importable, else fallback

Usage:
  asyncdr_sema.py [--root DIR] [--compile-db FILE] [--frontend F] [paths...]
  asyncdr_sema.py --list-rules
  asyncdr_sema.py --rules DR004,SA001           run a subset of the catalog
  asyncdr_sema.py --sarif out.sarif             write SARIF 2.1.0
  asyncdr_sema.py --write-baseline | --prune-baseline | --no-baseline
Paths restrict the reported findings; the analysis always covers the whole
tree, so a cross-file rule (DR009, SA001) still sees every file it needs.

Suppressions always carry a justification (reason-less markers do not
suppress: the zero-findings gate requires every suppression to explain
itself):
  // asyncdr-sema: allow(DR004) rendering is this function's whole job
      ...on the offending line, or in the contiguous // block above it.
  // asyncdr-sema: disable-file(SA002) <reason>
      ...anywhere in the file, disables the rule for the whole file.
An SA rule that re-finds a site a DR rule already triaged honors that DR
rule's markers: SA001 the DR rule of the sink's category (DR001 wall-clock,
DR002 randomness, DR004 iostream, DR010 threads), SA004 DR010 and DR012.

Exit status: 0 clean, 1 new findings, 2 usage error, 77 libclang requested
but unavailable.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import signal
import sys
import textwrap

if hasattr(signal, "SIGPIPE"):  # `asyncdr_sema.py | head` should not traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

BASELINE_SCHEMA = "asyncdr-sema-baseline-v1"

# Directories scanned relative to the repo root. tests/ is deliberately out of
# scope: tests may poke internals (that is their job); the model only
# constrains the simulator, its workloads, and its front-ends. The SA rules
# analyse src/ alone; the DR rules each name their directories.
SCAN_ROOTS = ("src", "bench", "examples")
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

# Reasons are mandatory: allow()/disable-file() must be followed by text.
ALLOW_RE = re.compile(r"asyncdr-sema:\s*allow\(([A-Z0-9, ]+)\)\s*(\S.*)")
DISABLE_RE = re.compile(
    r"asyncdr-sema:\s*disable-file\(([A-Z0-9, ]+)\)\s*(\S.*)")

# SA004's static-data check generalizes these two DR rules, so it honors
# their markers (SA001's counterparts are per sink category, in SINKS).
SA004_SUPERSEDES = ("DR010", "DR012")

# Entry namespaces: every function defined inside one of these is a root of
# the reachability analysis. The paper's model constrains the simulator, the
# DR protocol layer, and the oracle workloads; obs/adv/chaos/campaign code
# only matters where those roots reach into it.
ENTRY_NAMESPACES = (
    "asyncdr::sim::", "asyncdr::dr::", "asyncdr::proto::", "asyncdr::oracle::")

# Forbidden calls by category, read by both the per-line DR rule and SA001.
# `exempt` lists the files where the category is legitimate by architecture:
# the Rng implementation owns entropy, the campaign substrate and the
# thread-count resolver own parallelism.
Sink = collections.namedtuple("Sink", "rule regex label exempt")
SINKS = {
    "wall-clock": Sink(
        "DR001",
        re.compile(
            r"std::chrono::(steady_clock|system_clock|high_resolution_clock)"
            r"|\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\("
            r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"),
        "wall-clock time source", ("src/common/rng.",)),
    "randomness": Sink(
        "DR002",
        re.compile(
            r"\b(s?rand|drand48|arc4random)\s*\("
            r"|std::random_device|\brandom_device\b|\bmt19937\b"),
        "ambient randomness", ("src/common/rng.",)),
    "iostream": Sink(
        "DR004",
        re.compile(
            r"std::(cout|cerr|cin)\b|\bprintf\s*\("
            r"|\bfprintf\s*\(\s*std(out|err)|\bputs\s*\("),
        "iostream/console state", ()),
    "threads": Sink(
        "DR010",
        re.compile(
            r"std::(jthread|thread|mutex|scoped_lock|lock_guard|unique_lock"
            r"|shared_mutex|condition_variable|atomic)\b|\bstd::async\b"),
        "threading primitive", ("src/campaign/", "src/common/threads.")),
}

# SA003: mutating receiver methods on the containers/values this tree uses
# for downloaded state (BitVec, IntervalSet, std containers).
MUTATOR_METHODS = (
    "set|splice|unite|insert|subtract|clear|erase|push_back|pop_back"
    "|emplace|emplace_back|assign|resize|reset|fill|flip|merge|swap")
MUTATION_RE = re.compile(
    r"\b([a-z]\w*_)\s*(?:\.|->)\s*(?:" + MUTATOR_METHODS + r")\s*\("
    r"|\b([a-z]\w*_)\s*(?:\[[^\]]*\]\s*)?(=(?!=)|\+=|-=|\|=|&=|\^=)")
JOURNAL_RE = re.compile(r"\bjournal_(bits|indices|checkpoint)\s*\(")

CXX_KEYWORDS = frozenset(
    "if for while switch return sizeof alignof decltype static_assert catch "
    "new delete throw co_await co_return co_yield case default do else "
    "alignas noexcept typeid assert".split())

UNORDERED_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(map|set|multimap"
                          r"|multiset)\s*<")
SEQ_OF_UNORDERED_RE = re.compile(
    r"\b(?:std\s*::\s*)?(vector|array|deque)\s*<\s*(?:std\s*::\s*)?"
    r"unordered_(map|set|multimap|multiset)\s*<")


class Finding:
    def __init__(self, rule, path, line, message, snippet=""):
        self.rule = rule  # rule id, e.g. "DR002"
        self.path = path  # repo-relative, forward slashes
        self.line = line  # 1-based
        self.message = message
        self.snippet = snippet

    def fingerprint(self):
        """Stable identity for baselining: rule + file + content of the
        offending line (not its number, which shifts with every edit)."""
        digest = hashlib.sha256(self.snippet.strip().encode()).hexdigest()[:16]
        return f"{self.rule}:{self.path}:{digest}"

    def render(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class Rule:
    """One catalog entry. `check` is a callable(Program) -> [Finding]."""

    def __init__(self, rule_id, name, summary, rationale, check):
        self.id = rule_id
        self.name = name
        self.summary = summary
        self.rationale = rationale
        self.check = check


# --------------------------------------------------------------------------
# Source model: suppression scanning over original lines
# --------------------------------------------------------------------------

class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath.replace(os.sep, "/")
        self.abspath = os.path.join(root, relpath)
        with open(self.abspath, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.lines = self.text.splitlines()
        self.stripped = strip_comments_and_strings(self.text)
        self.code_lines = self.stripped.split("\n")
        # Comments blanked, string literals kept: the view for rules that
        # read a quoted include path.
        self.uncommented_lines = strip_comments_and_strings(
            self.text, keep_strings=True).split("\n")
        self.disabled = set()
        for m in DISABLE_RE.finditer(self.text):
            self.disabled.update(_rule_ids(m))

    def allowed_on_line(self, lineno):
        """Rule ids allowed on `lineno`: a marker on the line itself or in
        the contiguous // block above it. Markers without a justification
        are ignored by construction of ALLOW_RE (the reason is mandatory)."""
        allowed = set()
        cursor = lineno
        while 1 <= cursor <= len(self.lines) and (
                cursor == lineno
                or self.lines[cursor - 1].lstrip().startswith("//")):
            m = ALLOW_RE.search(self.lines[cursor - 1])
            if m:
                allowed.update(_rule_ids(m))
            cursor -= 1
        return allowed

    def suppressed(self, lineno, *rules):
        """True when any of `rules` is disabled for this file or allowed on
        `lineno`; an SA rule passes the DR rules it supersedes too."""
        return bool((self.disabled | self.allowed_on_line(lineno))
                    .intersection(rules))

    def line_at(self, offset):
        return self.text.count("\n", 0, offset) + 1

    def snippet(self, lineno):
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return self.relpath


def _rule_ids(marker):
    return {r.strip() for r in marker.group(1).split(",") if r.strip()}


def strip_comments_and_strings(text, keep_strings=False):
    """Returns text of identical length/newlines with comment bodies and
    string/char literal contents blanked, so structural scanning never
    trips on prose. Handles multi-line /* */ and basic raw strings. With
    `keep_strings`, literals are skipped over but left intact."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
            continue
        if c == 'R' and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                end = (end + len(closer)) if end != -1 else n
                for j in range(i, min(end, n)):
                    if text[j] != "\n" and not keep_strings:
                        out[j] = " "
                i = end
                continue
        if c == '"' or c == "'":
            quote, start = c, i + 1
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n and text[i + 1] != "\n":
                    i += 1
                i += 1
            if not keep_strings:
                for j in range(start, min(i, n)):
                    if text[j] != "\n":
                        out[j] = " "
            i += 1
            continue
        i += 1
    return "".join(out)


def match_bracket(text, start, open_ch, close_ch):
    """Index just past the bracket matching text[start] == open_ch, or -1."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_angle(text, start):
    """Like match_bracket for template angle brackets; parens inside are
    skipped wholesale so `foo<decltype(a < b)>` cannot misnest."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "(":
            i = match_bracket(text, i, "(", ")")
            if i == -1:
                return -1
            continue
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1  # not a template argument list after all
        i += 1
    return -1


# --------------------------------------------------------------------------
# Intermediate representation shared by both frontends
# --------------------------------------------------------------------------

class LoopIR:
    def __init__(self, line, range_expr, body, is_unordered):
        self.line = line
        self.range_expr = range_expr.strip()
        self.body = body            # stripped body text (braces excluded)
        self.is_unordered = is_unordered  # None = unknown (fallback), bool


class LambdaIR:
    def __init__(self, line, default_ref_capture, is_worker_job):
        self.line = line
        self.default_ref_capture = default_ref_capture
        self.is_worker_job = is_worker_job


class StaticIR:
    def __init__(self, line, decl):
        self.line = line
        self.decl = decl.strip()


class FuncIR:
    def __init__(self, qualname, relpath, line, end_line):
        self.qualname = qualname       # e.g. asyncdr::dr::World::run
        self.relpath = relpath
        self.line = line
        self.end_line = end_line
        self.calls = []                # (callee_text, line)
        self.sinks = []                # (category, token, line)
        self.loops = []                # [LoopIR]
        self.events = []               # SA003: ("journal"|"mutate", name, line)
        self.lambdas = []              # [LambdaIR]

    @property
    def simple_name(self):
        return self.qualname.rsplit("::", 1)[-1]

    @property
    def class_qual(self):
        parts = self.qualname.split("::")
        return "::".join(parts[:-1]) if len(parts) > 1 else ""


class Program:
    def __init__(self, root, files):
        self.root = root
        self.files = files             # relpath -> SourceFile, whole tree
        self.functions = []            # [FuncIR]
        self.statics = []              # (relpath, StaticIR)
        self.unordered_names = set()   # identifiers declared unordered
        self.unordered_elem_names = set()  # vector-of-unordered identifiers
        # The SA rules' scope: the simulator library under src/.
        self.model_files = {rel: src for rel, src in sorted(files.items())
                            if rel.startswith("src/")}
        for src in self.model_files.values():
            _index_unordered_decls(src, self)

    def by_simple_name(self):
        index = {}
        for fn in self.functions:
            index.setdefault(fn.simple_name, []).append(fn)
        return index


# --------------------------------------------------------------------------
# Fallback frontend: a conservative pure-Python C++ indexer
# --------------------------------------------------------------------------

FUNC_HEADER_RE = re.compile(
    r"([A-Za-z_~][\w:~]*(?:\s*::\s*[A-Za-z_~][\w~]*)*)\s*$")
CALL_RE = re.compile(r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)\s*\(")
FOR_RE = re.compile(r"\bfor\s*\(")
LAMBDA_RE = re.compile(r"\[\s*([&=]?)[^\]]*\]\s*(?:\([^)]*\))?\s*"
                       r"(?:mutable\s*)?(?:->\s*[\w:<>&*\s]+?)?\s*\{")


class _Block:
    def __init__(self, kind, name=""):
        self.kind = kind  # namespace | class | function | other
        self.name = name


def _header_before(stripped, brace_pos):
    """Text between the previous statement boundary and `{` at brace_pos,
    with constructor init-lists cut off (everything after a top-level `:`
    that follows the parameter list)."""
    start = brace_pos - 1
    depth = 0
    while start >= 0:
        c = stripped[start]
        if c in ")]>":
            depth += 1
        elif c in "([<":
            depth -= 1
        elif depth == 0 and c in ";{}":
            break
        start -= 1
    return stripped[start + 1:brace_pos], start + 1


def _classify_header(header):
    """(kind, name) for the block opened after `header`."""
    h = header.strip()
    m = re.search(r"\bnamespace\s+([A-Za-z_][\w:]*)?\s*$", h)
    if m:
        return "namespace", m.group(1) or "(anonymous)"
    if re.search(r"\b(class|struct|union)\s+[A-Za-z_]", h) and "(" not in h \
            and not h.startswith("template"):
        words = re.findall(r"[A-Za-z_]\w*", h)
        name = ""
        for i, w in enumerate(words):
            if w in ("class", "struct", "union") and i + 1 < len(words):
                name = words[i + 1]
        # `class X : public Y {` keeps X; attributes/final are skipped over.
        return "class", name
    if re.search(r"\benum\b", h):
        return "other", ""
    # Constructor init list: cut at the first top-level `:` after a `)`.
    depth = 0
    close = -1
    for i, c in enumerate(h):
        if c in "([<":
            depth += 1
        elif c in ")]>":
            depth -= 1
            if c == ")" and depth == 0:
                close = i
        elif c == ":" and depth == 0 and close != -1 \
                and h[i:i + 2] != "::" and h[i - 1:i] != ":":
            h = h[:i]
            break
    h = h.rstrip()
    for qualifier in ("const", "noexcept", "override", "final", "mutable"):
        while h.endswith(qualifier):
            h = h[:-len(qualifier)].rstrip()
    m = re.search(r"->\s*[\w:<>&*\s]+$", h)
    if m and ")" in h[:m.start()]:
        h = h[:m.start()].rstrip()
    if h.endswith(")"):
        # Find the matching ( of the trailing parameter list, then the name.
        depth = 0
        i = len(h) - 1
        while i >= 0:
            if h[i] == ")":
                depth += 1
            elif h[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        if i > 0:
            name_part = h[:i].rstrip()
            if name_part.endswith("]"):
                return "function", "(lambda)"
            m = FUNC_HEADER_RE.search(name_part)
            if m:
                name = re.sub(r"\s+", "", m.group(1))
                head = name.split("::", 1)[0].lstrip("~")
                if name and head not in CXX_KEYWORDS:
                    return "function", name
    return "other", ""


def _parse_blocks(src):
    """Yields (qualname, start_offset, end_offset) for every function
    definition in the stripped text, tracking namespace/class nesting."""
    stripped = src.stripped
    stack = []
    functions = []
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            header, _ = _header_before(stripped, i)
            kind, name = _classify_header(header)
            block = _Block(kind, name)
            if kind == "function":
                inside_fn = any(b.kind == "function" for b in stack)
                if not inside_fn and name != "(lambda)":
                    scope = [b.name for b in stack
                             if b.kind in ("namespace", "class") and b.name
                             and b.name != "(anonymous)"]
                    qual = "::".join(scope + [name]) if scope else name
                    block.fn = (qual, i)
            stack.append(block)
        elif c == "}":
            if stack:
                block = stack.pop()
                fn = getattr(block, "fn", None)
                if fn is not None:
                    functions.append((fn[0], fn[1], i))
        i += 1
    return functions


def _extract_calls(body, base_line, text_offset_to_line):
    calls = []
    for m in CALL_RE.finditer(body):
        name = re.sub(r"\s+", "", m.group(1))
        head = name.split("::", 1)[0]
        if head in CXX_KEYWORDS or head == "std":
            continue
        calls.append((name, text_offset_to_line(m.start())))
    return calls


def _extract_sinks(body, text_offset_to_line):
    sinks = []
    for category, sink in SINKS.items():
        for m in sink.regex.finditer(body):
            sinks.append((category, m.group(0).strip(),
                          text_offset_to_line(m.start())))
    return sinks


def _extract_events(body, text_offset_to_line):
    """SA003 event stream: journal appends and member mutations, in lexical
    order (the fallback's approximation of 'every path': a mutation with no
    append anywhere before it in the function cannot be dominated by one)."""
    events = []
    for m in JOURNAL_RE.finditer(body):
        events.append(("journal", m.group(1), text_offset_to_line(m.start()),
                       m.start()))
    for m in MUTATION_RE.finditer(body):
        name = m.group(1) or m.group(2)
        if name:
            events.append(("mutate", name, text_offset_to_line(m.start()),
                           m.start()))
    events.sort(key=lambda e: e[3])
    return [(kind, name, line) for kind, name, line, _ in events]


def _loop_body(stripped, after_header):
    """Stripped text of the loop body: the balanced {...} block or the single
    statement up to `;`."""
    i = after_header
    while i < len(stripped) and stripped[i] in " \t\n":
        i += 1
    if i < len(stripped) and stripped[i] == "{":
        end = match_bracket(stripped, i, "{", "}")
        return stripped[i + 1:end - 1] if end != -1 else stripped[i + 1:]
    end = stripped.find(";", i)
    return stripped[i:end + 1] if end != -1 else stripped[i:]


def _extract_loops(src, body_start, body_end, program, text_offset_to_line):
    """Range-for and iterator loops in [body_start, body_end); is_unordered
    resolved against the program-wide declared-name index."""
    stripped = src.stripped
    loops = []
    for m in FOR_RE.finditer(stripped, body_start, body_end):
        open_paren = m.end() - 1
        close = match_bracket(stripped, open_paren, "(", ")")
        if close == -1:
            continue
        header = stripped[open_paren + 1:close - 1]
        line = text_offset_to_line(m.start())
        body = _loop_body(stripped, close)
        colon = _top_level_colon(header)
        if colon != -1:
            range_expr = header[colon + 1:].strip()
            loops.append(LoopIR(line, range_expr, body,
                                _expr_is_unordered(range_expr, program)))
            continue
        bm = re.search(r"([A-Za-z_][\w.\->\[\]]*)\s*\.\s*c?begin\s*\(", header)
        if bm:
            range_expr = bm.group(1)
            loops.append(LoopIR(line, range_expr, body,
                                _expr_is_unordered(range_expr, program)))
    return loops


def _top_level_colon(header):
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "([<{":
            depth += 1
        elif c in ")]>}":
            depth -= 1
        elif c == ":" and depth == 0:
            if header[i:i + 2] == "::" or (i > 0 and header[i - 1] == ":"):
                i += 2
                continue
            return i
        i += 1
    return -1


def _expr_is_unordered(expr, program):
    """Best-effort: does `expr` denote an unordered container? True/False
    when the declared-name index decides it, None when unknown (unknown is
    treated as ordered — the fallback is conservative about noise; the
    libclang frontend resolves these exactly)."""
    e = expr.strip()
    if "unordered_" in e:
        return True
    e = re.sub(r"^\s*(this\s*->|\*)\s*", "", e)
    if e.endswith(")"):
        i = len(e) - 1
        depth = 0
        while i >= 0:
            if e[i] == ")":
                depth += 1
            elif e[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        m = re.search(r"([A-Za-z_]\w*)\s*$", e[:i])
        return True if m and m.group(1) in program.unordered_names else None
    if e.endswith("]"):
        i = len(e) - 1
        depth = 0
        while i >= 0:
            if e[i] == "]":
                depth += 1
            elif e[i] == "[":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        m = re.search(r"([A-Za-z_]\w*)\s*$", e[:i])
        if m:
            if m.group(1) in program.unordered_elem_names:
                return True
            if m.group(1) in program.unordered_names:
                return None  # element of an unordered map: value type unknown
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", e)
    if m:
        return m.group(1) in program.unordered_names or None
    return None


def _index_unordered_decls(src, program):
    stripped = src.stripped
    for m in UNORDERED_RE.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        if close == -1:
            continue
        rest = stripped[close:]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)\s*[;={(,)]", rest)
        if dm:
            program.unordered_names.add(dm.group(1))
    for m in SEQ_OF_UNORDERED_RE.finditer(stripped):
        open_angle = stripped.index("<", m.start())
        close = match_angle(stripped, open_angle)
        if close == -1:
            continue
        rest = stripped[close:]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)\s*[;={(,)]", rest)
        if dm:
            program.unordered_elem_names.add(dm.group(1))


def _extract_statics(src):
    """Non-const static data declarations (SA004). A `(` before the
    initializer marks a function declarator, so those are skipped; the known
    imprecision is ctor-style `static T x(args);` initializers, which this
    tree does not use (brace or `=` init only)."""
    out = []
    stripped = src.stripped
    for m in re.finditer(r"(?:^|[;{}\n])\s*static\s+", stripped):
        start = m.end()
        i = start
        depth = 0
        while i < len(stripped):
            c = stripped[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == ";" and depth == 0:
                break
            i += 1
        decl = stripped[start:i]
        if re.match(r"\s*(const\b|constexpr\b|consteval\b)", decl):
            continue
        head = decl.split("=", 1)[0]
        brace = head.find("{")
        if brace != -1:
            head = head[:brace]
        if "(" in head:
            continue  # function declaration/definition
        out.append(StaticIR(src.line_at(m.end() - 1),
                            "static " + decl.strip()))
    return out


def _extract_lambdas(src, body_start, body_end, text_offset_to_line):
    lambdas = []
    stripped = src.stripped
    for m in re.finditer(r"\[\s*&\s*[,\]]", stripped[body_start:body_end]):
        pos = body_start + m.start()
        # Confirm a lambda follows: `](`, `]{`, or `] {` within bounds.
        close = stripped.find("]", pos)
        if close == -1:
            continue
        after = stripped[close + 1:close + 40].lstrip()
        if not (after.startswith("(") or after.startswith("{")
                or after.startswith("mutable")):
            continue
        # Worker-job heuristic: the lambda is an argument of a `.run(` call
        # or initializes a campaign::Campaign::Job.
        window = stripped[max(0, pos - 160):pos]
        is_worker = bool(re.search(r"\.\s*run\s*\(\s*$", window)
                         or re.search(r"\bJob\b[^;]*=\s*$", window))
        lambdas.append(LambdaIR(text_offset_to_line(pos), True, is_worker))
    return lambdas


def build_program_fallback(root, files):
    program = Program(root, files)
    for rel, src in program.model_files.items():
        def line_of(off, _src=src):
            return _src.line_at(off)
        for qual, start, end in _parse_blocks(src):
            fn = FuncIR(qual, rel, src.line_at(start), src.line_at(end))
            body = src.stripped[start:end]

            def body_line(off, _src=src, _start=start):
                return _src.line_at(_start + off)
            fn.calls = _extract_calls(body, fn.line, body_line)
            fn.sinks = _extract_sinks(body, body_line)
            fn.events = _extract_events(body, body_line)
            fn.loops = _extract_loops(src, start, end, program, line_of)
            fn.lambdas = _extract_lambdas(src, start, end, line_of)
            program.functions.append(fn)
        if rel.startswith(("src/campaign/", "src/chaos/")):
            for st in _extract_statics(src):
                program.statics.append((rel, st))
    return program


# --------------------------------------------------------------------------
# libclang frontend: same IR, precise boundaries and types
# --------------------------------------------------------------------------

def load_libclang():
    """Returns the clang.cindex module or None. Honors ASYNCDR_LIBCLANG
    (path to libclang.so) for containers with unusual layouts."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    override = os.environ.get("ASYNCDR_LIBCLANG")
    if override:
        try:
            cindex.Config.set_library_file(override)
        except Exception:  # pragma: no cover - defensive
            pass
    try:
        cindex.Index.create()
    except Exception:  # bindings present but no usable libclang.so
        return None
    return cindex


def build_program_libclang(root, files, compile_db_path, warn):
    """Parses every TU in the compile database with libclang and lowers the
    AST into the shared IR. Headers are attributed to their own relpath, so
    findings land where the code lives, exactly as in the fallback."""
    cindex = load_libclang()
    assert cindex is not None
    program = Program(root, files)

    with open(compile_db_path, encoding="utf-8") as f:
        entries = json.load(f)
    index = cindex.Index.create()
    seen_functions = set()
    fnkinds = (cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
               cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
               cindex.CursorKind.FUNCTION_TEMPLATE)

    def rel_of(cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        path = os.path.normpath(os.path.join(root, str(loc.file)))
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        return rel if rel in program.model_files else None

    def qualname(cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def lower_function(cursor, rel):
        extent = cursor.extent
        fn = FuncIR(qualname(cursor), rel, extent.start.line, extent.end.line)
        src = program.files[rel]
        body = "\n".join(src.stripped.splitlines()[extent.start.line - 1:
                                                   extent.end.line])
        base = extent.start.line

        def body_line(off):
            return base + body.count("\n", 0, off)
        fn.sinks = _extract_sinks(body, body_line)
        fn.events = _extract_events(body, body_line)

        def walk(c):
            for child in c.get_children():
                k = child.kind
                if k == cindex.CursorKind.CALL_EXPR:
                    callee = child.referenced
                    name = (qualname(callee) if callee is not None
                            else child.spelling)
                    if name:
                        fn.calls.append((name, child.location.line))
                elif k == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                    kids = list(child.get_children())
                    is_unordered = None
                    range_expr = ""
                    if len(kids) >= 2:
                        init = kids[-2]
                        t = init.type.get_canonical().spelling
                        is_unordered = "unordered_map" in t \
                            or "unordered_set" in t \
                            or "unordered_multi" in t
                        range_expr = " ".join(
                            tok.spelling for tok in init.get_tokens())[:80]
                    body_c = kids[-1] if kids else None
                    body_text = ""
                    if body_c is not None:
                        e = body_c.extent
                        lines = src.stripped.splitlines()
                        body_text = "\n".join(
                            lines[e.start.line - 1:e.end.line])
                        body_text = body_text.strip()
                        if body_text.startswith("{"):
                            body_text = body_text[1:]
                        if body_text.endswith("}"):
                            body_text = body_text[:-1]
                    fn.loops.append(LoopIR(child.location.line, range_expr,
                                           body_text, is_unordered))
                elif k == cindex.CursorKind.LAMBDA_EXPR:
                    toks = [t.spelling for t in child.get_tokens()][:4]
                    default_ref = len(toks) >= 2 and toks[0] == "[" \
                        and toks[1] == "&"
                    fn.lambdas.append(LambdaIR(child.location.line,
                                               default_ref, False))
                walk(child)
        walk(cursor)
        return fn

    def visit(cursor):
        for child in cursor.get_children():
            rel = rel_of(child)
            if rel is None:
                if child.kind in (cindex.CursorKind.NAMESPACE,):
                    visit(child)
                continue
            if child.kind in fnkinds and child.is_definition():
                key = (qualname(child), rel, child.extent.start.line)
                if key not in seen_functions:
                    seen_functions.add(key)
                    program.functions.append(lower_function(child, rel))
            elif child.kind == cindex.CursorKind.VAR_DECL \
                    and rel.startswith(("src/campaign/", "src/chaos/")):
                if child.storage_class == cindex.StorageClass.STATIC \
                        and not child.type.spelling.startswith("const") \
                        and "const " not in child.type.spelling:
                    program.statics.append(
                        (rel, StaticIR(child.location.line,
                                       "static " + child.type.spelling + " "
                                       + child.spelling)))
            if child.kind in (cindex.CursorKind.NAMESPACE,
                              cindex.CursorKind.CLASS_DECL,
                              cindex.CursorKind.STRUCT_DECL,
                              cindex.CursorKind.CLASS_TEMPLATE):
                visit(child)

    parsed_tus = 0
    for entry in entries:
        path = os.path.normpath(os.path.join(entry["directory"],
                                             entry["file"]))
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel not in program.model_files:
            continue
        args = [a for a in entry.get("command", "").split()[1:]
                if a != entry["file"] and not a.endswith(".o")
                and a not in ("-c", "-o")]
        try:
            tu = index.parse(path, args=args)
        except Exception as e:  # pragma: no cover - environment-specific
            warn(f"libclang failed to parse {rel}: {e}")
            continue
        parsed_tus += 1
        visit(tu.cursor)
    if parsed_tus == 0:
        warn("libclang parsed no translation units; results are header-only")
    # Lambdas nested in functions double as worker jobs when the enclosing
    # function constructs a Campaign; reuse the fallback's textual heuristic
    # for the is_worker bit (tokens, not types — identical in both modes).
    for fn in program.functions:
        src = program.files.get(fn.relpath)
        if src is None or not fn.lambdas:
            continue
        text = "\n".join(src.stripped.splitlines()[fn.line - 1:fn.end_line])
        has_campaign = "campaign::Campaign" in text or ".run(" in text
        for lam in fn.lambdas:
            lam.is_worker_job = has_campaign
    return program


# --------------------------------------------------------------------------
# DR rules: line-level conformance over the stripped text
# --------------------------------------------------------------------------

def regex_rule(rule_id, regex, message, dirs=SCAN_ROOTS, exempt=()):
    """Builds a checker that flags every match of `regex` on a
    comment/string-stripped line of the files under `dirs`, skipping files
    whose path starts with an `exempt` prefix."""
    regex = re.compile(regex)
    inside = tuple(d + "/" for d in dirs)

    def check(program):
        findings = []
        for src in program.files.values():
            if not src.relpath.startswith(inside) \
                    or src.relpath.startswith(exempt):
                continue
            for lineno, code in enumerate(src.code_lines, start=1):
                m = regex.search(code)
                if m and not src.suppressed(lineno, rule_id):
                    findings.append(Finding(
                        rule_id, src.relpath, lineno,
                        message.format(match=m.group(0).strip()),
                        src.snippet(lineno)))
        return findings

    return check


def sink_rule(category, message, dirs=SCAN_ROOTS):
    """The per-line DR rule over one SINKS category."""
    sink = SINKS[category]
    return regex_rule(sink.rule, sink.regex, message, dirs, sink.exempt)


def whole_file_rule(rule_id, applies, message):
    """Flags, at line 1, every file for which `applies(src)` holds."""
    def check(program):
        return [Finding(rule_id, src.relpath, 1, message, src.relpath)
                for src in program.files.values()
                if applies(src) and not src.suppressed(1, rule_id)]
    return check


QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')
ANGLED_INCLUDE_RE = re.compile(r"#\s*include\s+<([^>]+)>")


def check_include_hygiene(program):
    findings = []

    def flag(src, lineno, message):
        if not src.suppressed(lineno, "DR006"):
            findings.append(Finding("DR006", src.relpath, lineno, message,
                                    src.snippet(lineno)))

    def is_src_header(inc):
        return os.path.isfile(os.path.join(program.root, "src", inc))

    for src in program.files.values():
        here = os.path.dirname(src.abspath)
        for lineno, raw in enumerate(src.uncommented_lines, start=1):
            m = QUOTED_INCLUDE_RE.search(raw)
            if m and ".." in m.group(1).split("/"):
                flag(src, lineno, f'relative include "{m.group(1)}" escapes '
                     "its directory; include from the src/ root instead")
                continue
            if m and not (is_src_header(m.group(1)) or os.path.isfile(
                    os.path.join(here, m.group(1)))):
                flag(src, lineno, f'quoted include "{m.group(1)}" resolves '
                     "to no file under src/ or the including directory "
                     "(system headers use <...>)")
            m = ANGLED_INCLUDE_RE.search(raw)
            if m and is_src_header(m.group(1)):
                flag(src, lineno, f"project header <{m.group(1)}> included "
                     'with angle brackets; use "..." for repo headers')
    return findings


def check_phase_coverage(program):
    """Every honest protocol peer registered through a factory in
    src/protocols/runner.cpp must open at least one accounting phase, or its
    Q/T/M silently lands in the catch-all and the per-phase reconciliation
    has a hole. Adversary peers (attacks*.cpp) are exempt: their costs are
    the adversary's, which the paper's complexity measures do not count."""
    findings = []
    runner = program.files.get("src/protocols/runner.cpp")
    if runner is None or "DR009" in runner.disabled:
        return findings
    classes = set(re.findall(r"std::make_unique<(\w+)>", runner.stripped))
    impl_files = [src for src in program.files.values()
                  if src.relpath.startswith("src/protocols/")
                  and src.relpath.endswith(".cpp")
                  and not src.relpath.startswith("src/protocols/attacks")]
    for cls in sorted(classes):
        for src in impl_files:
            if not re.search(rf"\b{cls}::on_start\b", src.stripped) \
                    or "begin_phase(" in src.stripped:
                continue
            lineno = next((i for i, line in enumerate(src.code_lines, start=1)
                           if f"{cls}::on_start" in line), 1)
            if src.suppressed(lineno, "DR009"):
                continue
            findings.append(Finding(
                "DR009", src.relpath, lineno,
                f"protocol peer {cls} is registered in runner.cpp but never "
                "calls begin_phase(); its Q/T/M would bypass the per-phase "
                "reconciliation", src.snippet(lineno)))
    return findings


# --------------------------------------------------------------------------
# SA rules: structure over the IR
# --------------------------------------------------------------------------

def resolve_calls(program):
    """callee-name -> [FuncIR] resolution across the program: exact
    qualified suffix match first, then simple-name match. Over-approximates
    (two classes sharing a method name alias each other) — safe for
    reachability, which only ever errs toward reporting."""
    by_simple = program.by_simple_name()
    by_suffix = {}
    for fn in program.functions:
        parts = fn.qualname.split("::")
        for i in range(len(parts)):
            by_suffix.setdefault("::".join(parts[i:]), []).append(fn)

    def resolve(name):
        name = name.strip()
        if name in by_suffix:
            return by_suffix[name]
        simple = name.rsplit("::", 1)[-1]
        return by_simple.get(simple, [])
    return resolve


def check_sa001(program):
    findings = []
    resolve = resolve_calls(program)
    entries = [fn for fn in program.functions
               if fn.qualname.startswith(ENTRY_NAMESPACES)]
    # BFS with parent pointers for a representative path per function.
    parent = {}
    queue = []
    for fn in entries:
        if id(fn) not in parent:
            parent[id(fn)] = None
            queue.append(fn)
    fn_of = {id(fn): fn for fn in program.functions}
    head = 0
    while head < len(queue):
        fn = queue[head]
        head += 1
        for callee_name, _line in fn.calls:
            for callee in resolve(callee_name):
                if id(callee) not in parent:
                    parent[id(callee)] = id(fn)
                    queue.append(callee)

    def path_of(fn):
        chain = []
        cur = id(fn)
        while cur is not None:
            chain.append(fn_of[cur].qualname)
            cur = parent[cur]
        return " <- ".join(chain)

    reported = set()
    for fn in program.functions:
        if id(fn) not in parent or not fn.sinks:
            continue
        src = program.files[fn.relpath]
        for category, token, line in fn.sinks:
            sink = SINKS[category]
            if fn.relpath.startswith(sink.exempt):
                continue
            if src.suppressed(line, "SA001", sink.rule):
                continue
            key = (fn.relpath, line, category)
            if key in reported:
                continue
            reported.add(key)
            findings.append(Finding(
                "SA001", fn.relpath, line,
                f"{sink.label} '{token}' is reachable from model "
                f"entry points (path: {path_of(fn)}); runs must be pure "
                "functions of (config, seed)",
                src.snippet(line)))
    return findings


ACCUM_STMT_RE = re.compile(
    r"^\s*(?:\+\+\s*[\w.\[\]]+|[\w.\[\]]+\s*\+\+"
    r"|[\w.\[\]]+(?:\s*\.\s*\w+)*\s*\+=\s*[^;]+)\s*$")
PURE_CALL_RE = re.compile(r"\b(size|count|length|empty|first|second)\s*\(")


def loop_is_order_insensitive(body):
    """Conservative prover: every statement is a commutative scalar
    accumulation (`x += e`, `++x`, `x++`) whose RHS calls nothing beyond
    pure observers (size/count/length/empty). Any control flow, other call,
    or other write fails the proof."""
    statements = [s.strip() for s in body.split(";") if s.strip()]
    if not statements:
        return False
    for stmt in statements:
        if not ACCUM_STMT_RE.match(stmt):
            return False
        calls = CALL_RE.findall(stmt)
        stripped_pure = PURE_CALL_RE.sub("(", stmt)
        if CALL_RE.search(stripped_pure):
            return False
        del calls
    return True


def check_sa002(program):
    findings = []
    for fn in program.functions:
        src = program.files[fn.relpath]
        for loop in fn.loops:
            if loop.is_unordered is not True:
                continue
            if loop_is_order_insensitive(loop.body):
                continue
            if src.suppressed(loop.line, "SA002"):
                continue
            findings.append(Finding(
                "SA002", fn.relpath, loop.line,
                f"iteration over unordered container '{loop.range_expr}' in "
                f"{fn.qualname}: hash order is not deterministic state; "
                "sort the keys, use std::map, or justify with "
                "asyncdr-sema: allow(SA002)",
                src.snippet(loop.line)))
    return findings


def check_sa003(program):
    findings = []
    # Classes that override on_restart are the journal clients; the members
    # their on_restart mutates are the recovered state the WAL protects.
    recovered_by_class = {}
    for fn in program.functions:
        if fn.simple_name == "on_restart" and fn.class_qual:
            members = {name for kind, name, _ in fn.events if kind == "mutate"}
            if members:
                recovered_by_class.setdefault(fn.class_qual,
                                              set()).update(members)
    for fn in program.functions:
        members = recovered_by_class.get(fn.class_qual)
        if not members or fn.simple_name in ("on_restart",):
            continue
        if fn.simple_name == fn.class_qual.rsplit("::", 1)[-1]:
            continue  # constructor: no incarnation to lose yet
        src = program.files[fn.relpath]
        journaled = False
        flagged = set()
        for kind, name, line in fn.events:
            if kind == "journal":
                journaled = True
                continue
            if journaled or name not in members or name in flagged:
                continue
            flagged.add(name)
            if src.suppressed(line, "SA003"):
                continue
            findings.append(Finding(
                "SA003", fn.relpath, line,
                f"{fn.qualname} mutates recovered state '{name}' with no "
                "preceding journal_* append in this function; bits applied "
                "but never journaled are lost to the next incarnation and "
                "re-queried, skewing the warm-vs-cold Q accounting",
                src.snippet(line)))
    return findings


def check_sa004(program):
    findings = []
    for rel, st in program.statics:
        src = program.files[rel]
        if src.suppressed(st.line, "SA004", *SA004_SUPERSEDES):
            continue
        findings.append(Finding(
            "SA004", rel, st.line,
            f"non-const static '{st.decl[:60]}' in campaign/chaos worker "
            "code: one mutable static couples every run through scheduling "
            "and breaks same-seed reproducibility",
            src.snippet(st.line)))
    for fn in program.functions:
        if not fn.relpath.startswith(("src/campaign/", "src/chaos/")):
            continue
        src = program.files[fn.relpath]
        for lam in fn.lambdas:
            if not (lam.default_ref_capture and lam.is_worker_job):
                continue
            if src.suppressed(lam.line, "SA004"):
                continue
            findings.append(Finding(
                "SA004", fn.relpath, lam.line,
                f"campaign worker lambda in {fn.qualname} captures by "
                "default-[&]: the shared surface is invisible; list every "
                "capture explicitly so cross-world sharing stays auditable",
                src.snippet(lam.line)))
    return findings


RULES = [
    Rule(
        "DR001", "wall-clock-time",
        "No wall-clock or OS time sources outside src/common/rng.*.",
        "The DR model runs on virtual sim::Time only. One std::chrono clock "
        "read mixed into protocol or substrate logic breaks bit-for-bit "
        "determinism per seed, and with it every shrunk chaos repro and "
        "golden accounting test.",
        sink_rule("wall-clock",
                  "wall-clock time source '{match}' (virtual sim::Time "
                  "only)")),
    Rule(
        "DR002", "ambient-randomness",
        "All randomness flows through the seeded asyncdr::Rng streams.",
        "Runs must be pure functions of (config, seed): the chaos shrinker, "
        "the two-world lower-bound adversary, and the bench baselines all "
        "rely on replaying a seed to reproduce the exact execution. "
        "std::random_device, rand(), or an ad-hoc mt19937 adds entropy the "
        "seed does not control.",
        sink_rule("randomness",
                  "ambient randomness '{match}' (use asyncdr::Rng split "
                  "streams)")),
    Rule(
        "DR003", "source-internals",
        "Source/ValueSource state mutation stays on the query-accounting "
        "path (src/dr/source.*, src/oracle/*).",
        "Every bit a peer learns from the external source must be accounted "
        "by Query — that is the quantity Theorems 1-6 bound. Code that swaps "
        "arrays, installs overlays, or resets counters from elsewhere can "
        "leak unaccounted bits; the two-world adversary constructions that "
        "legitimately need it carry explicit allow() annotations.",
        regex_rule(
            "DR003",
            r"\.\s*(set_data|set_overlay|reset_accounting"
            r"|enable_index_recording)\s*\("
            r"|\bsource\(\)\s*\.\s*data\s*\(\)",
            "source-internals access '{match}' outside the accounting path",
            exempt=("src/dr/source.", "src/oracle/"))),
    Rule(
        "DR004", "stdout-in-library",
        "No console I/O (std::cout/cerr/cin, printf) in library code under "
        "src/.",
        "Library-side printing corrupts machine-readable output (the CLI "
        "pipes reports and JSON to stdout), console input makes a run "
        "depend on the terminal, and both hide information from the "
        "structured report types tests assert on. Designated report "
        "renderers carry an allow() annotation.",
        sink_rule("iostream", "direct console I/O '{match}' in library code",
                  dirs=("src",))),
    Rule(
        "DR005", "pragma-once",
        "Every header carries #pragma once.",
        "A double-included header produces ODR spaghetti that surfaces as "
        "baffling link errors; one uniform guard style keeps the check "
        "mechanical.",
        whole_file_rule(
            "DR005",
            lambda src: src.relpath.endswith((".hpp", ".h", ".hh"))
            and "#pragma once" not in src.stripped,
            "header lacks '#pragma once'")),
    Rule(
        "DR006", "include-hygiene",
        'Quoted includes resolve from the src/ root; system headers use <>.',
        "Includes that only resolve through accidental -I paths or ../ hops "
        "break as soon as a target's include dirs change; src/-rooted spelling "
        "keeps every header's location explicit and greppable.",
        check_include_hygiene),
    Rule(
        "DR007", "namespace",
        "All src/ code lives in namespace asyncdr.",
        "Global-namespace symbols collide with dependencies and make ADL "
        "surprises possible; the namespace is also what scopes the "
        "identifier-naming rules clang-tidy enforces.",
        whole_file_rule(
            "DR007",
            lambda src: src.relpath.startswith("src/")
            and "namespace asyncdr" not in src.stripped,
            "src/ file declares nothing in namespace asyncdr")),
    Rule(
        "DR008", "raw-throw",
        "Use ASYNCDR_EXPECTS/ASYNCDR_INVARIANT instead of raw throw.",
        "Contract macros attach the failed expression and source location "
        "and funnel everything into asyncdr::contract_violation, which tests "
        "and the chaos runner catch by type. A raw throw bypasses that "
        "taxonomy (check.hpp itself is the single designated throw site).",
        regex_rule("DR008", r"\bthrow\b",
                   "raw '{match}' (use the ASYNCDR_* contract macros)",
                   dirs=("src",), exempt=("src/common/check.hpp",))),
    Rule(
        "DR009", "phase-accounting",
        "Registered protocol peers open at least one begin_phase().",
        "RunReport's per-phase Q/T/M breakdown reconciles exactly against "
        "run totals; a protocol that never opens a phase dumps its whole "
        "cost into the catch-all and the reconciliation test loses its "
        "teeth for that protocol.",
        check_phase_coverage),
    Rule(
        "DR010", "threads-outside-substrate",
        "Threading primitives only in src/campaign/ and "
        "src/common/threads.*.",
        "A dr::World is single-threaded by design — determinism comes from "
        "a sequential event loop. Parallelism belongs in the sweep substrate "
        "that fans out *independent* worlds; a mutex or thread inside model "
        "code is either a data race waiting for TSan or hidden "
        "schedule-dependence. Shared read-only caches that genuinely need a "
        "lock carry an allow() annotation.",
        sink_rule("threads",
                  "threading primitive '{match}' outside the sweep substrate",
                  dirs=("src",))),
    Rule(
        "DR011", "persistence-outside-journal",
        "No direct filesystem or stream persistence in src/ outside "
        "dr::Journal (src/dr/journal.*).",
        "Crash-recovery durability flows through the dr::Journal write-ahead "
        "log, whose backing store is sim-owned and deterministic. An ad-hoc "
        "fstream or fopen in model code introduces ambient filesystem state "
        "the seed does not control: restarts would replay host files instead "
        "of the journal, and chaos repros would stop being pure functions of "
        "(config, seed). Bench and CLI layers write reports freely — the "
        "rule guards src/ only.",
        regex_rule(
            "DR011",
            r"std::(o|i|w)?fstream\b|\bstd::filesystem\b"
            r"|\b(fopen|freopen|fwrite|fread|tmpfile|mkstemp)\s*\(",
            "direct persistence '{match}' outside dr::Journal",
            dirs=("src",), exempt=("src/dr/journal.",))),
    Rule(
        "DR012", "cross-world-sharing",
        "Campaign/sweep worker code must not share mutable world state "
        "(dr::World, sim::Engine, sim::Network, dr::Peer) across runs.",
        "The campaign substrate's determinism contract (same seed => "
        "byte-identical summary at any thread count) holds because every "
        "run builds its own world and workers share only the claim cursor "
        "and their private collector shards. A static world, or shared "
        "ownership of one, couples runs through scheduling: Q/T/M would "
        "depend on which worker ran first, and same-seed repros would stop "
        "reproducing.",
        regex_rule(
            "DR012",
            r"\bstatic\s+(?!const\b|constexpr\b)[^;=(]*"
            r"\b(dr::World|sim::Engine|sim::Network|dr::Peer)\b"
            r"|\bstd::shared_ptr<\s*(dr::World|sim::Engine|sim::Network"
            r"|dr::Peer)\b",
            "cross-world mutable sharing '{match}' in sweep code (each "
            "campaign run owns its world)",
            dirs=("src/campaign", "src/chaos"))),
    Rule(
        "SA001", "purity-reachability",
        "No wall-clock, ambient randomness, iostream state, or thread "
        "primitives reachable from sim::/dr::/proto::/oracle:: entry points.",
        "The adversary controls scheduling and nothing else (PAPER.md "
        "model): a run must be a pure function of (config, seed). The "
        "per-line rules DR001/DR002/DR004/DR010 check each line in "
        "isolation; this rule walks the interprocedural call graph so a "
        "clock read buried two helpers deep under dr::World::run is still "
        "caught. It reads the same SINKS table with the same owner "
        "exemptions (src/common/rng.* for entropy, src/campaign/ + "
        "src/common/threads.* for parallelism), and sites already allowed "
        "under the DR rule of the sink's category, with a written "
        "justification, are honored rather than re-triaged.",
        check_sa001),
    Rule(
        "SA002", "ordered-iteration",
        "No range-for/iterator loops over std::unordered_{map,set} unless "
        "provably order-insensitive or carrying a justification.",
        "Hash-map iteration order is libstdc++-internal state: it varies "
        "with insertion history, rehash points, and pointer values. One such "
        "loop feeding a trace, report, or summary silently breaks the "
        "byte-identical-traces contract the golden A/B suite and the "
        "campaign thread-count-independence tests pin. The analyzer proves "
        "a loop harmless only when every statement is a commutative scalar "
        "accumulation (+=, ++) with no other calls; everything else needs a "
        "sorted copy, a std::map, or an allow() with the argument written "
        "down.",
        check_sa002),
    Rule(
        "SA003", "wal-ordering",
        "Journal clients append to the write-ahead journal before mutating "
        "recovered state on every path through a function.",
        "Recovery replays the journal, nothing else (PR 6): bits a peer "
        "mutated into its recovered state (the members its on_restart "
        "rebuilds) without first appending them are silently re-queried — "
        "or worse, double-counted — by the next incarnation, and the "
        "warm-vs-cold Q accounting in BENCH_recovery.json stops meaning "
        "anything. DR011 only fences ambient persistence; this rule checks "
        "the append-before-mutate order inside each function of every class "
        "that overrides on_restart.",
        check_sa003),
    Rule(
        "SA004", "cross-world-sharing",
        "Campaign/chaos worker code: no non-const statics, no default-[&] "
        "capture on worker lambdas.",
        "The campaign determinism contract (same seed => byte-identical "
        "summary at any thread count) holds because workers share only the "
        "claim cursor and private collector shards. DR012 greps for shared "
        "world *types*; this rule catches the general shapes: any mutable "
        "static in src/campaign//src/chaos (one counter couples every run "
        "through scheduling), and Job lambdas with a default by-reference "
        "capture, which make the shared surface invisible — explicit "
        "capture lists keep it auditable.",
        check_sa004),
]
RULES_BY_ID = {r.id: r for r in RULES}


# --------------------------------------------------------------------------
# Output and baseline
# --------------------------------------------------------------------------

def list_rules():
    out = []
    for r in RULES:
        out.append(f"{r.id}  {r.name}")
        out.append(f"    {r.summary}")
        out.extend(f"      {line}" for line in textwrap.wrap(r.rationale, 72))
    return "\n".join(out)


def write_sarif(path, findings, frontend):
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "asyncdr-sema",
                "informationUri": "tools/asyncdr_sema.py",
                "properties": {"frontend": frontend},
                "rules": [{
                    "id": r.id,
                    "name": r.name,
                    "shortDescription": {"text": r.summary},
                    "fullDescription": {"text": r.rationale},
                    "defaultConfiguration": {"level": "error"},
                } for r in RULES],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "partialFingerprints": {"asyncdrSema/v1": f.fingerprint()},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": f.line},
                    },
                }],
            } for f in findings],
        }],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


# The baseline gates CI on "no NEW findings": fingerprints already recorded
# in the checked-in file are tolerated, anything else fails. An entry no
# current finding matches is stale (the line was fixed, moved files, or had
# its text edited); stale entries are reported, and --prune-baseline drops
# them, so a fixed finding cannot linger and pre-approve a later regression.

class BaselineError(Exception):
    """Malformed or unreadable baseline file."""


def load_baseline(path):
    """The set of fingerprints in `path`; empty when the file is absent."""
    if not os.path.isfile(path):
        return set()
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BaselineError(f"cannot read baseline {path}: {e}")
    if doc.get("schema") != BASELINE_SCHEMA:
        raise BaselineError(f"{path} is not a {BASELINE_SCHEMA} file")
    return set(doc.get("fingerprints", []))


def write_baseline(path, fingerprints):
    doc = {"schema": BASELINE_SCHEMA, "fingerprints": sorted(fingerprints)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def _entries(count, adjective):
    return f"{count} {adjective} entr{'y' if count == 1 else 'ies'}"


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_files(root):
    """Every C++ file under SCAN_ROOTS, keyed by repo-relative path."""
    files = {}
    for scan_root in SCAN_ROOTS:
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(root, scan_root)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    src = SourceFile(root, os.path.relpath(
                        os.path.join(dirpath, name), root))
                    files[src.relpath] = src
    return files


def find_compile_db(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for cand in ("build/compile_commands.json",
                 "build/dev/compile_commands.json"):
        path = os.path.join(root, cand)
        if os.path.isfile(path):
            return path
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description="asyncdr static analyzer")
    ap.add_argument("paths", nargs="*",
                    help="restrict FINDINGS to these repo-relative files "
                         "(analysis always runs over the whole tree)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json (default: build/, build/dev)")
    ap.add_argument("--frontend", choices=("auto", "libclang", "fallback"),
                    default="auto")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--sarif", metavar="FILE",
                    help="write SARIF 2.1.0 report to FILE")
    ap.add_argument("--baseline", metavar="FILE", default=None,
                    help="baseline file (default: tools/sema_baseline.json)")
    ap.add_argument("--no-baseline", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    ap.add_argument("--prune-baseline", action="store_true",
                    help="rewrite the baseline dropping entries no current "
                         "finding matches")
    args = ap.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"error: {root} does not look like the repo root (no src/)",
              file=sys.stderr)
        return 2

    wanted_rules = [r.strip() for r in args.rules.split(",")] \
        if args.rules else list(RULES_BY_ID)
    for rule_id in wanted_rules:
        if rule_id not in RULES_BY_ID:
            print(f"error: unknown rule {rule_id}", file=sys.stderr)
            return 2

    def warn(msg):
        print(f"asyncdr-sema: warning: {msg}", file=sys.stderr)

    frontend = args.frontend
    if frontend == "auto":
        frontend = "libclang" if load_libclang() is not None else "fallback"
    if frontend == "libclang" and load_libclang() is None:
        print("asyncdr-sema: libclang (python3 clang.cindex) unavailable; "
              "install python3-clang + libclang, or use "
              "--frontend fallback", file=sys.stderr)
        return 77

    files = collect_files(root)
    if frontend == "libclang":
        db = find_compile_db(root, args.compile_db)
        if db is None:
            print("asyncdr-sema: no compile_commands.json (configure with "
                  "cmake first, e.g. `cmake --preset dev`)", file=sys.stderr)
            return 2
        program = build_program_libclang(root, files, db, warn)
    else:
        program = build_program_fallback(root, files)

    findings = []
    for rule_id in wanted_rules:
        findings.extend(RULES_BY_ID[rule_id].check(program))
    if args.paths:
        wanted = {os.path.normpath(p).replace(os.sep, "/")
                  for p in args.paths}
        findings = [f for f in findings if f.path in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    current = {f.fingerprint() for f in findings}

    if args.sarif:
        write_sarif(args.sarif, findings, frontend)

    baseline_path = args.baseline or os.path.join(
        root, "tools", "sema_baseline.json")
    if args.write_baseline:
        write_baseline(baseline_path, current)
        print(f"baseline: wrote {len(current)} fingerprint(s) to "
              f"{baseline_path}")
        return 0
    known = set()
    if not args.no_baseline or args.prune_baseline:
        try:
            known = load_baseline(baseline_path)
        except BaselineError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    stale = sorted(known - current)
    if args.prune_baseline:
        if stale:
            write_baseline(baseline_path, known & current)
        print(f"baseline: kept {len(known & current)}, pruned "
              f"{_entries(len(stale), 'stale')} in {baseline_path}")
        return 0

    # Stale entries are reported but not fatal: they cannot hide a new
    # finding, and a run restricted to some paths would otherwise see every
    # other entry as stale.
    if stale and not args.paths:
        for fp in stale:
            rule, path, _ = (fp.split(":", 2) + ["", ""])[:3]
            print(f"asyncdr-sema:  stale baseline entry {path} ({rule}): no "
                  f"current finding matches {fp}", file=sys.stderr)
        print(f"asyncdr-sema: {_entries(len(stale), 'stale baseline')} (run "
              "--prune-baseline to drop)", file=sys.stderr)

    new = [f for f in findings if f.fingerprint() not in known]
    for f in new:
        print(f.render())
    suppressed = len(findings) - len(new)
    tail = f" ({suppressed} baselined)" if suppressed else ""
    print(f"asyncdr-sema[{frontend}]: {len(program.files)} file(s), "
          f"{len(program.functions)} function(s), {len(new)} "
          f"finding(s){tail}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""intsched determinism linter.

Flags C++ constructs that can silently break the repo's byte-identical
same-seed reproducibility contract (see DESIGN.md "Static analysis &
invariants"):

  unordered-iter   range-for over a std::unordered_{map,set,...} variable.
                   Hash-map iteration order depends on libstdc++ version,
                   insertion history, and rehash points; any such loop that
                   feeds rankings, reports, or serialization is a
                   reproducibility bug.
  float-accum      floating-point `+=` accumulation inside an unordered
                   iteration: even with a deterministic final set, the
                   *order* of FP additions changes the rounded result.
  wall-clock       std::chrono::{system,steady,high_resolution}_clock::now,
                   time(nullptr), clock(), gettimeofday, localtime/gmtime.
                   Simulation code must use sim::SimTime exclusively.
  unseeded-rng     rand()/srand(), std::random_device, default-constructed
                   std::mt19937/std::default_random_engine. All randomness
                   must flow through named, seeded sim::Rng streams.
  pointer-key      std::map/std::set keyed (or ordered) by a raw pointer:
                   the order is the allocator's, not the program's.
  thread-share     threading primitives (std::thread/jthread/async, mutex,
                   condition_variable, atomic, future/promise, latch,
                   barrier, thread_local) outside the designated thread-pool
                   boundary. The simulator is single-threaded by contract;
                   cross-thread shared mutable state anywhere else is a
                   nondeterminism hazard. The sanctioned boundary
                   (exp::SweepRunner) carries a file-level suppression.
  mutex-no-guard   a mutex member (std::*mutex or core::AnnotatedMutex) in
                   a class that declares no GUARDED_BY-annotated field. A
                   lock that guards nothing *named* guards nothing at all:
                   the -Wthread-safety preset can only check the lock
                   discipline the annotations declare (thread_annot.hpp).
  raw-thread       direct std::thread/std::jthread use or a .detach() call
                   anywhere but sweep_runner.cpp. All parallelism flows
                   through exp::SweepRunner so pool policy (stop flag,
                   exception funnel, steal order) stays in one audited
                   place. std::thread::id / hardware_concurrency (member
                   access, no spawn) are deliberately not flagged.
  atomic-ordering  memory_order_relaxed outside a fetch_add/fetch_sub
                   counter bump. Relaxed accesses carry no happens-before
                   edge; outside plain counters they are almost always a
                   latent race or a stale-read bug. Use the seq_cst
                   default, acquire/release, or justify the counter read
                   with allow(atomic-ordering).
  snapshot-escape  a reference into an RCU-style snapshot outliving the
                   snapshot handle: taking `&snap...` in a return statement
                   or storing it into a member, or capturing a snapshot
                   local by reference in a lambda handed to the event
                   scheduler. Published snapshots are immutable but their
                   *handles* pin the memory; an escaped reference reads
                   freed or superseded state after the next publish.
  hotpath-alloc    heap allocation (new/make_unique/make_shared/malloc or
                   construction of an allocating std:: container) inside a
                   scheduler hot-path function (HOT_PATH_FUNCTIONS, plus
                   any function marked `// intsched-lint: hot-path` on the
                   line above). The lock-free read path budget is zero
                   allocations per decision (DESIGN.md §10); hoist the
                   buffer to the caller or a member scratch area.
  raw-unit         a raw arithmetic parameter/field whose name encodes a
                   unit or time-like quantity (`*_ns`, `*_ms`, `*delay*`,
                   `*latency*`, `*epoch*`, ...). Raw int64/double unit
                   values are exactly the bug class the strong-type layer
                   (sim::SimDuration/SimTime, core::Epoch) removes; declare
                   the typed quantity instead of the raw count.

Suppression: append `// intsched-lint: allow(<rule>[, <rule>...])` to the
offending line or the line directly above it. For a file that is *itself*
a sanctioned boundary (e.g. the thread-pool implementation), a single
`// intsched-lint: allow-file(<rule>[, <rule>...])` anywhere in the file
suppresses those rules for the whole file. Suppressions are deliberate
review-visible annotations — use them only when the iteration order (or
thread confinement) provably cannot reach any ordered output (and say why
in a comment).

Suppression hygiene is itself checked: an allow()/allow-file() naming a
rule this linter does not define is an error (exit 1 — typos silently
disable nothing), and a suppression that matches no finding is reported
as unused (an error under --strict-suppressions) so stale annotations
don't accumulate as the code they excused moves away.

Engines: `--engine clang` uses libclang (python3-clang) for type-accurate
unordered-iter detection; `--engine regex` is a dependency-free fallback;
`--engine auto` (default) picks clang when importable, regex otherwise.
The text rules (wall-clock, unseeded-rng, pointer-key) are regex in both
engines.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

RULES = (
    "unordered-iter",
    "float-accum",
    "wall-clock",
    "unseeded-rng",
    "pointer-key",
    "thread-share",
    "mutex-no-guard",
    "raw-thread",
    "atomic-ordering",
    "snapshot-escape",
    "hotpath-alloc",
    "raw-unit",
)

# The one file allowed to create threads (the pool implementation); the
# raw-thread rule is suppressed there by construction, not by annotation.
RAW_THREAD_BOUNDARY_BASENAMES = ("sweep_runner.cpp",)

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".ipp")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<")
# `using Name = std::unordered_map<...>` / `typedef ... Name;`
ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std::unordered_(?:multi)?(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=|;|\{)")
ALLOW_RE = re.compile(r"//.*?\bintsched-lint:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"//.*?\bintsched-lint:\s*allow-file\(([^)]*)\)")
EXPECT_RE = re.compile(r"//.*?\bexpect\((\w[\w-]*)\)")
EXPECT_ERROR_RE = re.compile(r"//.*?\bexpect-error\(([^)]+)\)")
EXPECT_WARNING_RE = re.compile(r"//.*?\bexpect-warning\(([^)]+)\)")

TEXT_RULES: Sequence[Tuple[str, re.Pattern, str]] = (
    ("wall-clock",
     re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"
                r"\s*::\s*now"),
     "wall-clock read; simulation code must use sim::SimTime"),
    ("wall-clock",
     re.compile(r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time() wall-clock read"),
    ("wall-clock",
     re.compile(r"(?<![\w.>:])(?:clock|clock_gettime|gettimeofday|"
                r"localtime|localtime_r|gmtime|gmtime_r)\s*\("),
     "C wall-clock API"),
    ("unseeded-rng",
     re.compile(r"(?<![\w.>:])s?rand\s*\("),
     "rand()/srand(); use a named sim::Rng stream"),
    ("unseeded-rng",
     re.compile(r"std::random_device"),
     "std::random_device is nondeterministic entropy"),
    ("unseeded-rng",
     re.compile(r"std::(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?)"
                r"\s+\w+\s*(?:;|\{\s*\})"),
     "default-constructed std engine; seed it from the experiment seed "
     "or use sim::Rng"),
    ("pointer-key",
     re.compile(r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
                r"[\w:]+(?:\s*<[^<>]*>)?\s*\*"),
     "ordered container keyed by raw pointer: ordering is the "
     "allocator's, not the program's"),
    ("pointer-key",
     re.compile(r"std::less\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>"),
     "std::less over raw pointers"),
    ("thread-share",
     re.compile(r"std::(?:jthread|thread|async|mutex|recursive_mutex|"
                r"shared_mutex|timed_mutex|condition_variable(?:_any)?|"
                r"atomic(?:_flag)?\b|atomic\s*<|future|shared_future|"
                r"promise|latch|barrier|stop_token|counting_semaphore|"
                r"binary_semaphore)\b"),
     "threading primitive outside the thread-pool boundary: the simulator "
     "is single-threaded by contract; confine cross-thread state to "
     "exp::SweepRunner or justify with allow-file(thread-share)"),
    ("thread-share",
     re.compile(r"\bthread_local\b"),
     "thread_local state: per-thread copies diverge across --jobs values"),
    ("thread-share",
     re.compile(r"(?<![\w.>:])pthread_\w+\s*\("),
     "raw pthread call outside the thread-pool boundary"),
    ("raw-thread",
     re.compile(r"\bstd::j?thread\b(?!\s*::)"),
     "direct thread creation outside the pool implementation: all "
     "parallelism goes through exp::SweepRunner (sweep_runner.cpp)"),
    ("raw-thread",
     re.compile(r"\.\s*detach\s*\(\s*\)"),
     "detached thread: orphaned concurrency can be neither joined nor "
     "reasoned about; run the work on exp::SweepRunner instead"),
)

# -- concurrency structure rules (context-sensitive, shared by both
#    engines: class-body attribution for mutex-no-guard, statement context
#    for atomic-ordering) ------------------------------------------------

MUTEX_MEMBER_RE = re.compile(
    r"\b(?:std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex|"
    r"AnnotatedMutex)\s+([A-Za-z_]\w*)\s*(?:;|\{|=)")
CLASS_OPEN_RE = re.compile(r"\b(?:class|struct)\b[^;{}]*?\{")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
COUNTER_OP_RE = re.compile(r"\bfetch_(?:add|sub)\s*\(")


def class_body_spans(stripped: str) -> List[Tuple[int, int]]:
    """(open-brace, end) offsets of every class/struct body."""
    spans: List[Tuple[int, int]] = []
    for m in CLASS_OPEN_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        depth = 0
        for i in range(open_idx, len(stripped)):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((open_idx, i + 1))
                    break
        else:
            spans.append((open_idx, len(stripped)))
    return spans


def enclosing_class(spans: Sequence[Tuple[int, int]],
                    pos: int) -> Optional[Tuple[int, int]]:
    """Innermost class body containing `pos` (None for free/local scope)."""
    best: Optional[Tuple[int, int]] = None
    for open_idx, end in spans:
        if open_idx < pos < end and (best is None or open_idx > best[0]):
            best = (open_idx, end)
    return best


def concurrency_findings(path: str, stripped: str) -> List[Finding]:
    findings: List[Finding] = []

    # mutex-no-guard: every mutex *member* (declared at class-body depth,
    # not inside a method) must live next to at least one GUARDED_BY field.
    spans = class_body_spans(stripped)
    for m in MUTEX_MEMBER_RE.finditer(stripped):
        span = enclosing_class(spans, m.start())
        if span is None:
            continue  # function-local lock: scoping is its discipline
        open_idx, end = span
        depth = 1
        for i in range(open_idx + 1, m.start()):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
        if depth != 1:
            continue  # inside a member function body, not a member
        if "GUARDED_BY" in stripped[open_idx:end]:
            continue
        findings.append(Finding(
            path, line_of(stripped, m.start()), "mutex-no-guard",
            f"mutex member '{m.group(1)}' in a class with no "
            "GUARDED_BY-annotated field: declare what it protects "
            "(intsched/core/thread_annot.hpp) so -Wthread-safety can "
            "check the discipline, or justify with allow(mutex-no-guard)"))

    # atomic-ordering: relaxed is for counter bumps (fetch_add/fetch_sub
    # in the same statement); any other relaxed access needs a reason.
    for m in RELAXED_RE.finditer(stripped):
        stmt_start = max(stripped.rfind(c, 0, m.start())
                         for c in (";", "{", "}"))
        stmt = stripped[stmt_start + 1:m.end()]
        if COUNTER_OP_RE.search(stmt):
            continue
        findings.append(Finding(
            path, line_of(stripped, m.start()), "atomic-ordering",
            "memory_order_relaxed outside a fetch_add/fetch_sub counter "
            "bump: relaxed accesses publish nothing (no happens-before); "
            "use the seq_cst default or acquire/release, or justify a "
            "counter read with allow(atomic-ordering)"))

    return findings


# -- v2 rule families: snapshot-escape, hotpath-alloc, raw-unit ----------
#
# All three are structure-sensitive: they reason about declaration scopes,
# function bodies, and statement boundaries recovered from the stripped
# source (a lightweight syntax tree), not about single lines.

# Locals bound to an RCU-style snapshot handle: `auto snap = x.snapshot();`
# `const MetroView& v = map.metro_snapshot();` `... = service.acquire();`
SNAPSHOT_BIND_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*[\w.\->:]*\b(?:\w*snapshot\w*|acquire)\s*\(")
# Event-scheduler entry points whose callbacks outlive the caller's frame.
DEFERRED_CALL_RE = re.compile(
    r"\b(?:schedule_at|schedule_after|schedule_periodic|submit|post|defer)"
    r"\s*\(")

# The scheduler's lock-free decision path: zero allocations per call
# (DESIGN.md §10). Extend locally with `// intsched-lint: hot-path` on the
# line above a function definition.
HOT_PATH_FUNCTIONS = frozenset((
    "estimate_k_factor",
    "egress_service_delay",
    "try_transmit",
    "device_hop_latency",
    "link_delay",
))
HOT_PATH_MARK_RE = re.compile(r"//.*?\bintsched-lint:\s*hot-path\b")

HOT_ALLOC_RES: Sequence[Tuple[re.Pattern, str]] = (
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "raw `new`"),
    (re.compile(r"\bstd::make_(?:unique|shared)\s*<"),
     "std::make_unique/make_shared"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?(?:malloc|calloc|realloc)"
                r"\s*\("),
     "C heap allocation"),
    (re.compile(r"\bstd::(?:vector|deque|list|(?:unordered_)?(?:multi)?"
                r"(?:map|set)|basic_string)\s*<[^;{}()]*>\s+[A-Za-z_]\w*"
                r"\s*[;({=]"),
     "allocating container constructed locally"),
    (re.compile(r"\bstd::string\s+[A-Za-z_]\w*\s*[;({=]"),
     "std::string constructed locally"),
)

# Raw arithmetic declarations whose *name* encodes a unit or time-like
# quantity. Fractions/ratios/counters are legitimately raw; exclude them.
RAW_UNIT_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)_t|long\s+long|long|int|double|"
    r"float)\s+"
    r"([A-Za-z_]\w*(?:_ns|_us|_ms|_sec|_secs)|"
    r"[A-Za-z_]*(?:delay|latency|interval|window|timeout|staleness|rtt|"
    r"epoch)_?)\s*(?=[,)=;{\[])")
RAW_UNIT_EXEMPT_RE = re.compile(
    r"(?:_frac|_fraction|_ratio|_factor|_scale|_count|_chance|_pkts|"
    r"_bytes|_idx|_index)\w*$|(?:^|_)per_")


def function_body_spans(stripped: str,
                        hot_lines: Set[int]) -> List[Tuple[str, int, int]]:
    """(name, body_start, body_end) for every definition of a hot-path
    function: named in HOT_PATH_FUNCTIONS or marked hot on the previous
    line."""
    spans: List[Tuple[str, int, int]] = []
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", stripped):
        name = m.group(1)
        line = line_of(stripped, m.start())
        marked = (line - 1) in hot_lines or line in hot_lines
        if name not in HOT_PATH_FUNCTIONS and not marked:
            continue
        close = find_matching_paren(stripped, m.end() - 1)
        if close < 0:
            continue
        # Definition, not declaration/call: scan past qualifiers
        # (const/noexcept/override/trailing return/ctor-inits) to `{`;
        # a `;` or operator first means it wasn't a definition.
        i = close + 1
        n = len(stripped)
        body_open = -1
        while i < n:
            c = stripped[i]
            if c == "{":
                body_open = i
                break
            if c in ";=}" or (c == ")" or c == "("):
                break
            i += 1
        if body_open < 0:
            continue
        depth = 0
        for j in range(body_open, n):
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((name, body_open, j + 1))
                    break
        else:
            spans.append((name, body_open, n))
    return spans


def v2_findings(path: str, text: str, stripped: str) -> List[Finding]:
    findings: List[Finding] = []

    # --- snapshot-escape -------------------------------------------------
    snap_locals = {m.group(1) for m in SNAPSHOT_BIND_RE.finditer(stripped)}
    for name in sorted(snap_locals):
        # Escape 1: address-of the handle (or data reached through it)
        # returned or persisted into a member (trailing-underscore LHS).
        for m in re.finditer(
                rf"(?:\breturn\s+|[A-Za-z_]\w*_\s*=\s*)&\s*{name}\b",
                stripped):
            findings.append(Finding(
                path, line_of(stripped, m.start()), "snapshot-escape",
                f"address of snapshot handle '{name}' escapes its frame: "
                "the pointee is reclaimed after the next publish; copy the "
                "value or re-acquire the snapshot at use"))
        # Escape 2: reference-capturing lambda over the handle given to the
        # event scheduler — the callback runs after the frame is gone.
        for m in DEFERRED_CALL_RE.finditer(stripped):
            open_paren = stripped.index("(", m.start())
            close = find_matching_paren(stripped, open_paren)
            if close < 0:
                continue
            args = stripped[open_paren:close]
            if re.search(r"\[\s*&", args) and re.search(
                    rf"\b{name}\b", args):
                findings.append(Finding(
                    path, line_of(stripped, m.start()), "snapshot-escape",
                    f"snapshot handle '{name}' captured by reference in a "
                    "deferred callback: the callback outlives the frame "
                    "holding the snapshot; capture by value (the handle is "
                    "a cheap shared_ptr) or re-acquire inside the callback"))

    # --- hotpath-alloc ---------------------------------------------------
    hot_lines: Set[int] = set()
    for i, raw in enumerate(text.splitlines(), start=1):
        if HOT_PATH_MARK_RE.search(raw):
            hot_lines.add(i + 1)  # marks the function on the next line
    for name, start, end in function_body_spans(stripped, hot_lines):
        body = stripped[start:end]
        for pattern, what in HOT_ALLOC_RES:
            for m in pattern.finditer(body):
                findings.append(Finding(
                    path, line_of(stripped, start + m.start()),
                    "hotpath-alloc",
                    f"{what} in hot-path function '{name}': the decision "
                    "path budget is zero allocations per call (DESIGN.md "
                    "§10); hoist the buffer to the caller or a member "
                    "scratch area, or justify with allow(hotpath-alloc)"))

    # --- raw-unit --------------------------------------------------------
    for m in RAW_UNIT_RE.finditer(stripped):
        name = m.group(1)
        if RAW_UNIT_EXEMPT_RE.search(name):
            continue
        findings.append(Finding(
            path, line_of(stripped, m.start()), "raw-unit",
            f"raw arithmetic declaration '{name}' encodes a unit in its "
            "name: use the strong type (sim::SimDuration/SimTime for time "
            "spans/instants, core::Epoch for snapshot freshness) so unit "
            "mixups fail to compile"))

    return findings


@dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets
    (every replaced character becomes a space, newlines survive)."""
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i, min(j + 1, n)):
                if text[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_angle_brackets(text: str, open_idx: int) -> int:
    """Given index of '<', returns index just past its matching '>'.
    Returns -1 when unbalanced (macro soup etc.)."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1  # gave up: not a template argument list
        i += 1
    return -1


IDENT_AFTER_TYPE_RE = re.compile(r"\s*[&*]*\s*([A-Za-z_]\w*)")


def collect_unordered_names(stripped: str) -> Set[str]:
    """Names of variables/members/functions declared with an unordered
    container type (or an alias of one) in this translation unit."""
    names: Set[str] = set()
    aliases: Set[str] = set()
    for m in ALIAS_RE.finditer(stripped):
        aliases.add(m.group(1))

    def harvest(type_end: int) -> None:
        m = IDENT_AFTER_TYPE_RE.match(stripped, type_end)
        if m:
            names.add(m.group(1))

    for m in UNORDERED_DECL_RE.finditer(stripped):
        open_idx = stripped.index("<", m.start())
        end = match_angle_brackets(stripped, open_idx)
        if end > 0:
            harvest(end)
    for alias in aliases:
        for m in re.finditer(rf"\b{alias}\s+", stripped):
            # skip the alias definition itself
            if stripped[max(0, m.start() - 8):m.start()].rstrip().endswith(
                    "using"):
                continue
            harvest(m.end() - 1)
    return names


LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?\s*$")


def range_expr_target(expr: str) -> Optional[str]:
    """Final identifier of a range expression: `map_->link_delay_` ->
    `link_delay_`, `obj.plan()` -> `plan`, `(*p).items` -> `items`."""
    m = LAST_IDENT_RE.search(expr.strip())
    return m.group(1) if m else None


def find_matching_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def loop_body_span(stripped: str, after_paren: int) -> Tuple[int, int]:
    """(start, end) offsets of the loop body following `for (...)`."""
    i = after_paren
    n = len(stripped)
    while i < n and stripped[i].isspace():
        i += 1
    if i < n and stripped[i] == "{":
        depth = 0
        for j in range(i, n):
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    return (i, j + 1)
        return (i, n)
    # single-statement body
    j = stripped.find(";", i)
    return (i, j + 1 if j >= 0 else n)


def regex_file_findings(path: str, text: str,
                        pool: Optional[Set[str]] = None) -> List[Finding]:
    """`pool` is the cross-file set of names declared with unordered types
    (members live in headers but are iterated in .cpp files); when None the
    file is treated as self-contained (corpus mode)."""
    stripped = strip_comments_and_strings(text)
    findings: List[Finding] = []

    for rule, pattern, msg in TEXT_RULES:
        for m in pattern.finditer(stripped):
            findings.append(Finding(path, line_of(stripped, m.start()),
                                    rule, msg))
    findings.extend(concurrency_findings(path, stripped))
    findings.extend(v2_findings(path, text, stripped))

    unordered = collect_unordered_names(stripped)
    if pool is not None:
        unordered = unordered | pool
    float_vars = set(FLOAT_DECL_RE.findall(stripped))
    for m in RANGE_FOR_RE.finditer(stripped):
        open_paren = stripped.index("(", m.start())
        close = find_matching_paren(stripped, open_paren)
        if close < 0:
            continue
        header = stripped[open_paren + 1:close]
        if ":" not in header:
            continue  # classic for(;;)
        # split on the first ':' not part of '::'
        split = -1
        k = 0
        while k < len(header):
            if header[k] == ":":
                if k + 1 < len(header) and header[k + 1] == ":":
                    k += 2
                    continue
                split = k
                break
            k += 1
        if split < 0:
            continue
        target = range_expr_target(header[split + 1:])
        if target is None or target not in unordered:
            continue
        ln = line_of(stripped, m.start())
        findings.append(Finding(
            path, ln, "unordered-iter",
            f"range-for over unordered container '{target}': iteration "
            "order is hash/rehash dependent; sort on output or justify "
            "with an allow() annotation"))
        body_start, body_end = loop_body_span(stripped, close + 1)
        body = stripped[body_start:body_end]
        for am in re.finditer(r"([A-Za-z_]\w*)\s*\+=", body):
            if am.group(1) in float_vars:
                findings.append(Finding(
                    path, line_of(stripped, body_start + am.start()),
                    "float-accum",
                    f"floating-point accumulation into '{am.group(1)}' in "
                    "hash-ordered loop: FP addition is not associative, the "
                    "sum depends on iteration order"))
    return findings


# ---------------------------------------------------------------------------
# Optional libclang engine (type-accurate unordered-iter); falls back to the
# regex engine per file on any failure so results never silently shrink.
# ---------------------------------------------------------------------------

def libclang_available() -> bool:
    try:
        from clang import cindex  # type: ignore  # noqa: F401
    except ImportError:
        return False
    return True


_warned_no_libclang = False


def warn_no_libclang_once() -> None:
    global _warned_no_libclang
    if not _warned_no_libclang:
        print("detlint: libclang (python3-clang) not found; using the "
              "regex engine (type-accurate unordered-iter checks degraded)",
              file=sys.stderr)
        _warned_no_libclang = True


def clang_file_findings(path: str, text: str) -> Optional[List[Finding]]:
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
        tu = index.parse(path, args=["-std=c++20", "-fsyntax-only"])
    except Exception:
        return None

    findings: List[Finding] = []
    stripped = strip_comments_and_strings(text)
    for rule, pattern, msg in TEXT_RULES:
        for m in pattern.finditer(stripped):
            findings.append(Finding(path, line_of(stripped, m.start()),
                                    rule, msg))
    findings.extend(concurrency_findings(path, stripped))
    findings.extend(v2_findings(path, text, stripped))

    def walk(cursor) -> None:
        for child in cursor.get_children():
            if child.location.file and child.location.file.name != path:
                continue
            if child.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                kids = list(child.get_children())
                if kids:
                    range_type = kids[-2].type.spelling if len(kids) >= 2 \
                        else ""
                    if "unordered_" in range_type:
                        findings.append(Finding(
                            path, child.location.line, "unordered-iter",
                            f"range-for over '{range_type}': iteration "
                            "order is hash/rehash dependent"))
            walk(child)

    try:
        walk(tu.cursor)
    except Exception:
        return None
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def suppressed_rules(lines: Sequence[str], line_no: int) -> Set[str]:
    """Rules allowed at 1-based line `line_no` (same line or the one above)."""
    rules: Set[str] = set()
    for ln in (line_no, line_no - 1):
        if 1 <= ln <= len(lines):
            m = ALLOW_RE.search(lines[ln - 1])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def lint_file(path: str, engine: str,
              pool: Optional[Set[str]] = None
              ) -> Tuple[List[Finding], List[str], List[str]]:
    """Returns (active findings, hygiene errors, hygiene warnings).

    Hygiene errors are suppression annotations naming rules this linter
    does not define: a typo there silently disables nothing, so it fails
    the run (exit 1) even when the code itself is clean. Hygiene warnings
    are unused suppressions — annotations that matched no finding."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    lines = text.splitlines()

    findings: Optional[List[Finding]] = None
    if engine in ("auto", "clang"):
        findings = clang_file_findings(path, text)
        if findings is None and engine == "clang":
            print(f"detlint: libclang unavailable, regex fallback for {path}",
                  file=sys.stderr)
    if findings is None:
        findings = regex_file_findings(path, text, pool)

    raw_pairs = {(f.line, f.rule) for f in findings}
    rules_hit = {f.rule for f in findings}

    errors: List[str] = []
    warnings: List[str] = []
    file_allowed: Set[str] = set()
    for i, raw in enumerate(lines, start=1):
        m = ALLOW_RE.search(raw)
        if m:
            for r in (s.strip() for s in m.group(1).split(",")):
                if r not in RULES:
                    errors.append(
                        f"{path}:{i}: unknown rule '{r}' in allow() — "
                        "this suppresses nothing (typo?); known rules: "
                        "--list-rules")
                elif (i, r) not in raw_pairs and (i + 1, r) not in raw_pairs:
                    warnings.append(
                        f"{path}:{i}: unused suppression allow({r}): no "
                        f"[{r}] finding on this line or the next — the "
                        "code it excused has moved; delete the annotation")
        m = ALLOW_FILE_RE.search(raw)
        if m:
            for r in (s.strip() for s in m.group(1).split(",")):
                if r in RULES:
                    file_allowed.add(r)
                    if r not in rules_hit:
                        warnings.append(
                            f"{path}:{i}: unused suppression "
                            f"allow-file({r}): no [{r}] finding anywhere "
                            "in this file; delete the annotation")
                else:
                    errors.append(
                        f"{path}:{i}: unknown rule '{r}' in allow-file() — "
                        "this suppresses nothing (typo?); known rules: "
                        "--list-rules")

    if os.path.basename(path) in RAW_THREAD_BOUNDARY_BASENAMES:
        file_allowed.add("raw-thread")

    active = [f for f in findings
              if f.rule not in file_allowed
              and f.rule not in suppressed_rules(lines, f.line)]
    # stable report order regardless of rule-pass order
    active.sort(key=lambda f: (f.path, f.line, f.rule))
    return active, errors, warnings


def iter_cxx_files(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        else:
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if d not in (".git", "build")
                                 and not d.startswith("build-"))
                for name in sorted(files):
                    if name.endswith(CXX_EXTENSIONS):
                        out.append(os.path.join(root, name))
    return sorted(set(out))


def collect_pool(files: Sequence[str]) -> Set[str]:
    """Pass 1: every unordered-declared name across the whole scanned set,
    so a member declared in a header is recognised when a .cpp iterates it."""
    pool: Set[str] = set()
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            pool |= collect_unordered_names(
                strip_comments_and_strings(f.read()))
    return pool


def run_lint(paths: Sequence[str], engine: str,
             strict_suppressions: bool = False) -> int:
    files = iter_cxx_files(paths)
    if not files:
        print("detlint: no C++ files under given paths", file=sys.stderr)
        return 2
    pool = collect_pool(files)
    total = 0
    hygiene_errors = 0
    for path in files:
        findings, errors, warnings = lint_file(path, engine, pool)
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        hygiene_errors += len(errors)
        for w in warnings:
            if strict_suppressions:
                print(f"error: {w}", file=sys.stderr)
                hygiene_errors += 1
            else:
                print(f"warning: {w}", file=sys.stderr)
        for f in findings:
            print(f.render())
        total += len(findings)
    if total or hygiene_errors:
        print(f"detlint: {total} finding(s), {hygiene_errors} suppression "
              f"hygiene error(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    return 0


def run_self_test(corpus_dir: str, engine: str) -> int:
    """bad_*.cpp must produce exactly their expect() annotations; clean_*.cpp
    must produce none. `expect-error(substr)` / `expect-warning(substr)`
    annotations assert suppression-hygiene diagnostics the same way. The
    corpus is the linter's regression suite."""
    files = iter_cxx_files([corpus_dir])
    if not files:
        print(f"detlint: empty corpus at {corpus_dir}", file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        expected: Set[Tuple[int, str]] = set()
        exp_errors: List[str] = []
        exp_warnings: List[str] = []
        for i, raw in enumerate(lines, start=1):
            for m in EXPECT_RE.finditer(raw):
                expected.add((i, m.group(1)))
            for m in EXPECT_ERROR_RE.finditer(raw):
                exp_errors.append(m.group(1))
            for m in EXPECT_WARNING_RE.finditer(raw):
                exp_warnings.append(m.group(1))
        findings, errors, warnings = lint_file(path, engine)
        actual = {(f.line, f.rule) for f in findings}
        base = os.path.basename(path)
        if base.startswith("clean_") and expected:
            print(f"SELFTEST BROKEN: {base} is clean_* but has expect()")
            failures += 1
            continue
        missed = expected - actual
        spurious = actual - expected
        for line, rule in sorted(missed):
            print(f"SELFTEST MISS: {base}:{line} expected [{rule}] "
                  "not reported")
            failures += 1
        for line, rule in sorted(spurious):
            print(f"SELFTEST SPURIOUS: {base}:{line} reported [{rule}] "
                  "not expected")
            failures += 1
        # Hygiene diagnostics: every expect-error/expect-warning substring
        # must match one diagnostic, and no diagnostic may go unexpected.
        for label, got, want in (("error", errors, exp_errors),
                                 ("warning", warnings, exp_warnings)):
            unmatched = list(got)
            for sub in want:
                hit = next((d for d in unmatched if sub in d), None)
                if hit is None:
                    print(f"SELFTEST MISS: {base} expected a hygiene "
                          f"{label} containing '{sub}'")
                    failures += 1
                else:
                    unmatched.remove(hit)
            for d in unmatched:
                print(f"SELFTEST SPURIOUS: {base} hygiene {label}: {d}")
                failures += 1
    if failures:
        print(f"detlint self-test: FAIL ({failures} mismatch(es))")
        return 1
    print(f"detlint self-test: OK ({len(files)} corpus file(s))")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="detlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--engine", choices=("auto", "regex", "clang"),
                        default="auto")
    parser.add_argument("--require-libclang", action="store_true",
                        help="exit 2 instead of degrading to the regex "
                             "engine when libclang is unavailable (CI)")
    parser.add_argument("--self-test", action="store_true",
                        help="run against the bundled corpus")
    parser.add_argument("--strict-suppressions", action="store_true",
                        help="treat unused suppressions as errors "
                             "(full-tree CI runs)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0
    if not libclang_available():
        if args.require_libclang:
            print("detlint: --require-libclang set but libclang "
                  "(python3-clang) is not importable", file=sys.stderr)
            return 2
        if args.engine == "auto":
            warn_no_libclang_once()
    if args.self_test:
        corpus = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "corpus")
        return run_self_test(corpus, args.engine)
    if not args.paths:
        parser.error("paths required unless --self-test/--list-rules")
    return run_lint(args.paths, args.engine,
                    strict_suppressions=args.strict_suppressions)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

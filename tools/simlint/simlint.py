#!/usr/bin/env python3
"""simlint — static-analysis gate for the UVM simulator's reproducibility invariants.

Five rule families (see DESIGN.md §10, §12–§15):

  determinism      det-unordered-iter   iteration over std::unordered_* in
                                        observable (src/) code
                   det-ptr-container    std::map/std::set keyed by pointer
                                        value without a custom comparator
                   det-host-nondet      host time / host randomness sources
                                        outside src/sim/rng.h and
                                        bench/bench_host_perf.cpp
  cost model       cost-no-charge       a src/core// src/bsdvm/ function
                                        moves page-sized data (memcpy & co.)
                                        without reaching a CostModel/Clock
                                        charge, directly or transitively
  layering         layer-upward-include an #include that goes up the layer
                                        DAG sim -> {phys,mmu,vfs,swap} -> vm
                                        -> {core,bsdvm} -> kern -> harness ->
                                        tests/bench/examples
  robustness       pool-exhaustion-assert a SIM_ASSERT/SIM_PANIC whose
                                        message names pool/memory/swap
                                        exhaustion in src/ code: fixed-pool
                                        exhaustion must surface as a typed
                                        error and recover (DESIGN.md §12),
                                        not panic
                   poison-direct-write  a direct assignment to a Page's
                                        `poisoned` flag outside
                                        src/phys/phys_mem.cc: poison must go
                                        through PhysMem::PoisonPfn so the
                                        containment hooks, generation tag,
                                        and counters stay in sync
                                        (DESIGN.md §13)
  lock discipline  naked-lock-charge    a Charge(CostCat::kLock, ...) outside
                                        src/sim/lock.h: every lock round-trip
                                        must go through a named, ranked
                                        sim::SimLock so per-lock attribution
                                        and the rank validator see it
                                        (DESIGN.md §15)
                   unbalanced-lock-scope a receiver.Lock()/receiver.Acquire()
                                        with no receiver.Unlock()/.Release()
                                        anywhere in the same function: either
                                        use sim::LockGuard or keep the pair
                                        in one scope (DESIGN.md §15)
  scheduler        scheduler-raw-switch a raw scheduler/clock mutation
                                        (SwitchTo / SetNow / SetCurrentCpu)
                                        outside src/sim/: kernel code must
                                        change CPU only via sim::CpuScope so
                                        every switch is paired with its
                                        restore at an operation boundary
                                        (DESIGN.md §16)

Engine: every rule runs on a comment/string-stripped token scanner. It
honours the escape hatches from src/sim/annotations.h (SIM_ORDERED_OK,
SIM_HOST_TIME_OK, SIM_NO_CHARGE_OK, SIM_POOL_FATAL_OK, SIM_POOL_ALLOC_OK,
SIM_POISON_WRITE_OK, SIM_LOCK_CHARGE_OK, SIM_LOCK_BALANCE_OK,
SIM_SCHED_SWITCH_OK): a finding is suppressed when the matching token appears on the flagged line or the
two lines above it (SIM_NO_CHARGE_OK anywhere in the flagged function
body).

Usage:
  simlint.py --all                  lint the whole repo (CI gate mode)
  simlint.py --diff [REF]           lint only files changed vs REF (default
                                    HEAD) — fast local mode; context (call
                                    graph, layers) still comes from the full
                                    tree
  simlint.py FILE...                lint specific files
  simlint.py --update-baseline      rewrite the baseline from current
                                    findings (use scripts/simlint_baseline.py)

Exit status: 0 if every finding is baselined, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Configuration

SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")

# The include DAG, module -> modules it may include. "Upward" is anything
# not in the set. tests/bench/examples are pseudo-modules that may include
# everything; they are listed so an src -> tests include is rejected.
LAYER_BASE = {"sim", "phys", "mmu", "vfs", "swap", "vm"}
LAYER_DAG = {
    "sim": {"sim"},
    "phys": {"sim", "phys"},
    "mmu": {"sim", "phys", "mmu"},
    "vfs": {"sim", "vfs"},
    "swap": {"sim", "vfs", "swap"},
    "vm": LAYER_BASE,
    "core": LAYER_BASE | {"core"},
    "bsdvm": LAYER_BASE | {"bsdvm"},
    "kern": LAYER_BASE | {"kern"},
    "harness": LAYER_BASE | {"core", "bsdvm", "kern", "harness"},
}
TOP_MODULES = {"tests", "bench", "examples"}  # may include anything

# Files exempt from det-host-nondet: the seeded RNG itself and the host
# wall-time perf harness (its whole point is host time).
HOST_NONDET_EXEMPT = {
    os.path.join("src", "sim", "rng.h"),
    os.path.join("bench", "bench_host_perf.cpp"),
}

ANNOTATIONS = (
    "SIM_ORDERED_OK",
    "SIM_HOST_TIME_OK",
    "SIM_NO_CHARGE_OK",
    "SIM_POOL_FATAL_OK",
    "SIM_POOL_ALLOC_OK",
    "SIM_POISON_WRITE_OK",
    "SIM_LOCK_CHARGE_OK",
    "SIM_LOCK_BALANCE_OK",
    "SIM_SCHED_SWITCH_OK",
)
RULE_ANNOTATION = {
    "det-unordered-iter": "SIM_ORDERED_OK",
    "det-ptr-container": "SIM_ORDERED_OK",
    "det-host-nondet": "SIM_HOST_TIME_OK",
    "cost-no-charge": "SIM_NO_CHARGE_OK",
    "pool-exhaustion-assert": "SIM_POOL_FATAL_OK",
    "pool-naked-alloc": "SIM_POOL_ALLOC_OK",
    "poison-direct-write": "SIM_POISON_WRITE_OK",
    "naked-lock-charge": "SIM_LOCK_CHARGE_OK",
    "unbalanced-lock-scope": "SIM_LOCK_BALANCE_OK",
    "scheduler-raw-switch": "SIM_SCHED_SWITCH_OK",
    "chaos-undecorrelated-stream": "SIM_CHAOS_STREAM_OK",
}

# The one module allowed to flip Page::poisoned directly: the injection /
# retirement machinery itself. Everyone else (containment, daemons, tests)
# must go through PhysMem::PoisonPfn or annotate SIM_POISON_WRITE_OK.
POISON_WRITE_EXEMPT = {os.path.join("src", "phys", "phys_mem.cc")}

# Functions that advance the virtual clock; everything that (transitively)
# calls one of these is considered charged.
CHARGE_SEEDS = {"Charge", "Advance"}

# Data-movement / I/O primitives: calling one obliges the caller (in
# src/core, src/bsdvm) to reach a charge on the same path. The charged
# wrappers (CopyPage, ReadPages, ...) appear here too — they charge
# internally, so calls to them satisfy the rule by construction, and a
# future un-charged reimplementation would be caught by the call graph.
PRIMITIVE_PATTERNS = [
    (re.compile(r"(?:std::)?mem(?:cpy|move|set)\s*\("), "raw byte copy/fill"),
    (re.compile(r"std::(?:copy_n?|fill_n?)\s*\("), "raw range copy/fill"),
    (
        re.compile(
            r"(?<![\w])(?:CopyPage|ZeroPage|ReadPages|WritePages|ReadRun|WriteRun|"
            r"ReadSlot|WriteSlot|WriteRunRemapping|WriteSlotRemapping|ReadOp|WriteOp)\s*\("
        ),
        "page/disk/swap primitive",
    ),
]
COST_RULE_DIRS = (os.path.join("src", "core"), os.path.join("src", "bsdvm"))

HOST_NONDET_PATTERNS = [
    (re.compile(r"(?<![\w.>])s?rand\s*\("), "host rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"(?<![\w.>])mt19937(?:_64)?\b"), "mersenne twister (host-seeded)"),
    (
        re.compile(r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"),
        "std::chrono host clock",
    ),
    (re.compile(r"(?<![\w.:>])[A-Za-z_]\w*::now\s*\("), "host clock ::now()"),
    # The bare time()/clock() patterns are post-filtered by looks_like_decl()
    # so accessor definitions named `clock()` etc. do not trip them.
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w.:>])(?:gettimeofday|clock_gettime)\s*\("), "host clock syscall"),
]

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "constexpr", "decltype", "noexcept", "static_assert", "do", "else",
}


@dataclass
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str

    @property
    def key(self) -> str:
        return f"{self.rule}|{self.path}|{self.norm}"

    norm: str = field(default="", compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str       # repo-relative, forward slashes
    raw: str
    stripped: str   # comments/strings blanked, same length & line structure
    raw_lines: list
    stripped_lines: list


# --------------------------------------------------------------------------
# Lexing helpers

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines and
    byte offsets so line/column arithmetic stays valid."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"':
                if out and text[i - 1] == "R":
                    m = re.match(r'R"([^()\\ ]*)\(', text[i - 1:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = RAW_STRING
                        out.append('"')
                        i += 1
                        continue
                state = STRING
                out.append('"')
                i += 1
            elif c == "'":
                # A quote directly after an identifier/number character is a
                # C++14 digit separator (0x0000'1000), not a char literal.
                if i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
                    out.append("'")
                    i += 1
                else:
                    state = CHAR
                    out.append("'")
                    i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == RAW_STRING:
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = NORMAL
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def match_angle(text: str, open_idx: int):
    """Given index of '<', return index just past its matching '>' (or None).
    Tracks parens so 'operator<' style noise inside is unlikely to trip it."""
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
            return None  # statement ended: was a comparison, not a template
        i += 1
    return None


def split_template_args(args: str) -> list:
    """Split top-level template arguments on commas."""
    parts, depth, cur = [], 0, []
    for c in args:
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur).strip())
    return parts


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


# --------------------------------------------------------------------------
# Function segmentation (for the cost rule and the call graph)

FUNC_TAIL_RE = re.compile(
    r"\)\s*(?:const\b\s*)?(?:noexcept\b(?:\([^()]*\))?\s*)?(?:override\b\s*)?"
    r"(?:final\b\s*)?(?:->\s*[\w:<>,&*\s]+?)?\s*$"
)
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


@dataclass
class Function:
    name: str
    path: str
    start_line: int
    body: str       # stripped text of the body
    body_start: int  # offset of '{' in stripped file text


def parse_functions(sf: SourceFile) -> list:
    """Heuristic function-body finder on stripped text: a '{' preceded by a
    parameter list ')' (with optional const/noexcept/override/trailing
    return) opens a function body unless the name is a control keyword."""
    text = sf.stripped
    funcs = []
    stack = []  # entries: (is_function_body, func_index or None)
    in_function = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "{":
            classified = False
            if in_function == 0:
                j = i - 1
                while j >= 0 and text[j].isspace():
                    j -= 1
                head = text[max(0, i - 400):j + 1]
                if j >= 0 and FUNC_TAIL_RE.search(head):
                    close = head.rfind(")")
                    abs_close = max(0, i - 400) + close
                    depth = 0
                    k = abs_close
                    while k >= 0:
                        if text[k] == ")":
                            depth += 1
                        elif text[k] == "(":
                            depth -= 1
                            if depth == 0:
                                break
                        k -= 1
                    if k > 0:
                        m = j2 = k - 1
                        while j2 >= 0 and text[j2].isspace():
                            j2 -= 1
                        end = j2 + 1
                        while j2 >= 0 and (text[j2].isalnum() or text[j2] in "_~:"):
                            j2 -= 1
                        name = text[j2 + 1:end]
                        simple = name.split(":")[-1].lstrip("~")
                        del m
                        if simple and simple not in CONTROL_KEYWORDS and IDENT_RE.fullmatch(simple):
                            funcs.append(
                                Function(
                                    name=simple,
                                    path=sf.path,
                                    start_line=line_of(text, i),
                                    body="",
                                    body_start=i,
                                )
                            )
                            stack.append((True, len(funcs) - 1))
                            in_function += 1
                            classified = True
            if not classified:
                stack.append((False, None))
        elif c == "}":
            if stack:
                is_fn, idx = stack.pop()
                if is_fn:
                    in_function -= 1
                    f = funcs[idx]
                    f.body = text[f.body_start:i + 1]
        i += 1
    return [f for f in funcs if f.body]


CALL_RE = re.compile(r"(?<![\w.])(?:[\w]+(?:::|\.|->))*([A-Za-z_]\w*)\s*\(")


def body_calls(body: str) -> set:
    calls = set()
    for m in re.finditer(r"([A-Za-z_]\w*)\s*\(", body):
        name = m.group(1)
        if name not in CONTROL_KEYWORDS:
            calls.add(name)
    return calls


# --------------------------------------------------------------------------
# Repository model

class Repo:
    def __init__(self, root: str):
        self.root = root
        self.files = {}  # rel path -> SourceFile
        for d in SCAN_DIRS:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = [x for x in dirnames if x not in ("build", ".git")]
                for fn in sorted(filenames):
                    if not fn.endswith(SOURCE_EXTS):
                        continue
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    with open(full, "r", encoding="utf-8", errors="replace") as f:
                        raw = f.read()
                    stripped = strip_comments_and_strings(raw)
                    self.files[rel] = SourceFile(
                        path=rel,
                        raw=raw,
                        stripped=stripped,
                        raw_lines=raw.splitlines(),
                        stripped_lines=stripped.splitlines(),
                    )
        # Function table + name-level call graph over src/ (context for the
        # cost rule; always computed from the full tree).
        self.functions = []
        for rel, sf in sorted(self.files.items()):
            if rel.startswith("src/"):
                self.functions.extend(parse_functions(sf))
        callees = {}
        for fn in self.functions:
            callees.setdefault(fn.name, set()).update(body_calls(fn.body))
        self.charging = set(CHARGE_SEEDS)
        changed = True
        while changed:
            changed = False
            for name, calls in callees.items():
                if name not in self.charging and calls & self.charging:
                    self.charging.add(name)
                    changed = True

    def is_suppressed(self, sf: SourceFile, line: int, token: str) -> bool:
        for ln in range(max(1, line - 2), line + 1):
            if token in sf.raw_lines[ln - 1]:
                return True
        return False


# --------------------------------------------------------------------------
# Rules

UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<")


def unordered_decl_names(sf: SourceFile) -> set:
    names = set()
    text = sf.stripped
    for m in UNORDERED_DECL_RE.finditer(text):
        open_idx = text.index("<", m.start())
        close = match_angle(text, open_idx)
        if close is None:
            continue
        tail = text[close:close + 120]
        nm = re.match(r"[\s&*]*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if nm:
            names.add(nm.group(1))
    return names


def tu_partner(repo: Repo, rel: str):
    """For src/x/y.cc, also consider declarations from src/x/y.h."""
    stem, ext = os.path.splitext(rel)
    if ext in (".cc", ".cpp"):
        h = stem + ".h"
        if h in repo.files:
            return repo.files[h]
    return None


def rule_unordered_iter(repo: Repo) -> list:
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if not rel.startswith("src/"):
            continue
        names = unordered_decl_names(sf)
        partner = tu_partner(repo, rel)
        if partner is not None:
            names |= unordered_decl_names(partner)
        if not names:
            continue
        alts = "|".join(re.escape(n) for n in sorted(names))
        range_for = re.compile(r"for\s*\([^;()]*?:\s*(?:this->)?(" + alts + r")\s*\)")
        begin_call = re.compile(r"\b(" + alts + r")\s*\.\s*c?r?begin\s*\(")
        for pat, what in ((range_for, "range-for over"), (begin_call, "iterator walk of")):
            for m in pat.finditer(sf.stripped):
                line = line_of(sf.stripped, m.start())
                findings.append(
                    Finding(
                        rule="det-unordered-iter",
                        path=rel,
                        line=line,
                        message=(
                            f"{what} unordered container '{m.group(1)}': iteration order is "
                            "host-hash dependent and may leak into simulation results; sort "
                            "first or annotate SIM_ORDERED_OK(reason)"
                        ),
                    )
                )
    return findings


ORDERED_DECL_RE = re.compile(r"std::(map|set|multimap|multiset)\s*<")


def rule_ptr_container(repo: Repo) -> list:
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if not rel.startswith("src/"):
            continue
        text = sf.stripped
        for m in ORDERED_DECL_RE.finditer(text):
            kind = m.group(1)
            open_idx = text.index("<", m.start())
            close = match_angle(text, open_idx)
            if close is None:
                continue
            args = split_template_args(text[open_idx + 1:close - 1])
            comparator_pos = 2 if kind in ("map", "multimap") else 1
            if len(args) > comparator_pos:
                continue  # custom comparator supplied
            if args and args[0].rstrip().endswith("*"):
                findings.append(
                    Finding(
                        rule="det-ptr-container",
                        path=rel,
                        line=line_of(text, m.start()),
                        message=(
                            f"std::{kind} keyed by pointer value '{args[0]}': ordering follows "
                            "allocator addresses, which vary run to run; key by a creation id "
                            "or supply a deterministic comparator"
                        ),
                    )
                )
    return findings


def looks_like_decl(text: str, match: "re.Match") -> bool:
    """True when a time()/clock() match is a declaration or definition of a
    same-named member (e.g. `Clock& clock() { ... }`), not a host call."""
    j = match.start()
    while j > 0 and text[j - 1].isspace():
        j -= 1
    if j > 0 and text[j - 1] in "&*~":
        return True
    k = match.end()
    while k < len(text) and text[k].isspace():
        k += 1
    if k < len(text) and text[k] == "{":
        return True
    tail = text[k:k + 24]
    return bool(re.match(r"(?:const|noexcept|override|final|->)\b", tail))


def rule_host_nondet(repo: Repo) -> list:
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if rel.replace("/", os.sep) in {p for p in HOST_NONDET_EXEMPT} or rel in {
            p.replace(os.sep, "/") for p in HOST_NONDET_EXEMPT
        }:
            continue
        for pat, what in HOST_NONDET_PATTERNS:
            for m in pat.finditer(sf.stripped):
                if what in ("time()", "clock()") and looks_like_decl(sf.stripped, m):
                    continue
                line = line_of(sf.stripped, m.start())
                findings.append(
                    Finding(
                        rule="det-host-nondet",
                        path=rel,
                        line=line,
                        message=(
                            f"host nondeterminism source ({what}): simulated behaviour must "
                            "draw time from sim::Clock and randomness from sim::Rng; "
                            "annotate SIM_HOST_TIME_OK(reason) if deliberate"
                        ),
                    )
                )
    return findings


def rule_cost_no_charge(repo: Repo) -> list:
    findings = []
    cost_dirs = tuple(d.replace(os.sep, "/") + "/" for d in COST_RULE_DIRS)
    for fn in repo.functions:
        if not fn.path.startswith(cost_dirs):
            continue
        prims = []
        for pat, what in PRIMITIVE_PATTERNS:
            for m in pat.finditer(fn.body):
                prims.append((m.start(), what))
        if not prims:
            continue
        if body_calls(fn.body) & repo.charging:
            continue
        if "SIM_NO_CHARGE_OK" in fn.body:
            continue
        sf = repo.files[fn.path]
        for off, what in prims:
            line = line_of(sf.stripped, fn.body_start + off)
            findings.append(
                Finding(
                    rule="cost-no-charge",
                    path=fn.path,
                    line=line,
                    message=(
                        f"'{fn.name}' calls a {what} but no CostModel/Clock charge is "
                        "reachable from it: host-side data movement must advance virtual "
                        "time (or be annotated SIM_NO_CHARGE_OK(reason))"
                    ),
                )
            )
    return findings


POOL_FATAL_MACRO_RE = re.compile(r"\bSIM_(?:ASSERT|ASSERT_MSG|PANIC)\s*\(")
POOL_FATAL_MSG_RE = re.compile(
    r"out of (?:memory|swap)|pool|exhaust|table is full|no free (?:slot|page|entr)",
    re.IGNORECASE,
)


def rule_pool_fatal(repo: Repo) -> list:
    """A fatal assert/panic that fires on fixed-pool exhaustion. The message
    lives in a string literal (blanked in stripped text), so the raw line —
    plus the next two lines, for wrapped macro arguments — is searched."""
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if not rel.startswith("src/") or rel == os.path.join("src", "sim", "assert.h").replace(
            os.sep, "/"
        ):
            continue
        for lineno, line in enumerate(sf.raw_lines, start=1):
            if not POOL_FATAL_MACRO_RE.search(line):
                continue
            window = " ".join(sf.raw_lines[lineno - 1:lineno + 2])
            # The escape-hatch token itself contains "POOL"; drop annotation
            # calls so a nearby SIM_POOL_FATAL_OK(...) cannot trip the rule.
            window = re.sub(r"SIM_POOL_FATAL_OK\s*\([^)]*\)?", " ", window)
            if not POOL_FATAL_MSG_RE.search(window):
                continue
            findings.append(
                Finding(
                    rule="pool-exhaustion-assert",
                    path=rel,
                    line=lineno,
                    message=(
                        "fatal assert on a pool-exhaustion path: fixed-pool exhaustion must "
                        "surface as a typed error (kErrNoMem/kErrNoSwap/kErrNoVnode/"
                        "kErrMapEntryPool) and recover gracefully (DESIGN.md §12); annotate "
                        "SIM_POOL_FATAL_OK(reason) only when the assert is unreachable by "
                        "construction"
                    ),
                )
            )
    return findings


# Metadata types owned by the slab layer (DESIGN.md §14). Inside src/ they
# must come from the machine's pool, `machine.pools().New<T>()` — a naked
# heap allocation bypasses the pool's leak accounting, high-water stats,
# and deterministic reuse order. bench/ and tests/ stay legal: heap
# baselines and standalone fixtures construct these types directly on
# purpose.
POOLED_TYPES = ("Anon", "Amap", "VmObject", "PvEntry", "PtTable")
POOLED_PREFIX = r"(?:uvm::|bsdvm::|mmu::)?"
POOL_NAKED_NEW_RE = re.compile(
    r"\bnew\s+" + POOLED_PREFIX + r"(?:" + "|".join(POOLED_TYPES) + r")\b"
)
POOL_NAKED_MAKE_RE = re.compile(
    r"\bstd::make_unique\s*<\s*" + POOLED_PREFIX + r"(?:" + "|".join(POOLED_TYPES) + r")\s*>"
)


def rule_pool_naked_alloc(repo: Repo) -> list:
    """A `new T` / `make_unique<T>` of a pool-owned metadata type in src/.
    Placement new (the pools' own mechanism) has a '(' after `new` and does
    not match; AmapImpl / VmObjectIdLess style derived-or-similar names are
    excluded by the word boundary."""
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if not rel.startswith("src/"):
            continue
        for pat in (POOL_NAKED_NEW_RE, POOL_NAKED_MAKE_RE):
            for m in pat.finditer(sf.stripped):
                findings.append(
                    Finding(
                        rule="pool-naked-alloc",
                        path=rel,
                        line=line_of(sf.stripped, m.start()),
                        message=(
                            "naked heap allocation of a pool-owned metadata type "
                            f"({', '.join(POOLED_TYPES)}): allocate through "
                            "machine.pools().New<T>() so leak asserts, "
                            "high-water stats and deterministic reuse order hold "
                            "(DESIGN.md §14); annotate SIM_POOL_ALLOC_OK(reason) only "
                            "for objects that genuinely outlive the machine's pool"
                        ),
                    )
                )
    return findings


POISON_WRITE_RE = re.compile(r"(?:\.|->)\s*poisoned\s*=(?![=])")


def rule_poison_write(repo: Repo) -> list:
    """A direct store to a Page's poison flag anywhere but the injector.
    Assignments only — `poisoned ==`/`!=` comparisons and reads are fine."""
    exempt = {p.replace(os.sep, "/") for p in POISON_WRITE_EXEMPT}
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if rel in exempt:
            continue
        for m in POISON_WRITE_RE.finditer(sf.stripped):
            findings.append(
                Finding(
                    rule="poison-direct-write",
                    path=rel,
                    line=line_of(sf.stripped, m.start()),
                    message=(
                        "direct write to Page::poisoned outside src/phys/phys_mem.cc: "
                        "poison must be injected via PhysMem::PoisonPfn so containment "
                        "hooks fire and the generation tag / counters stay consistent "
                        "(DESIGN.md §13); annotate SIM_POISON_WRITE_OK(reason) only in "
                        "corruption fixtures that deliberately break the invariant"
                    ),
                )
            )
    return findings


# The one sanctioned kLock charge site: sim::SimLock in src/sim/lock.h, whose
# Acquire and RoundTrips charge each acquire through one helper. Everything
# else must hold a named, ranked lock so the charge is attributable and the
# rank validator sees the acquire (DESIGN.md §15).
LOCK_CHARGE_RE = re.compile(r"\bCharge\s*\(\s*(?:sim::)?CostCat::kLock\b")
LOCK_CHARGE_EXEMPT = {os.path.join("src", "sim", "lock.h")}


def rule_naked_lock_charge(repo: Repo) -> list:
    exempt = {p.replace(os.sep, "/") for p in LOCK_CHARGE_EXEMPT}
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if rel in exempt:
            continue
        for m in LOCK_CHARGE_RE.finditer(sf.stripped):
            findings.append(
                Finding(
                    rule="naked-lock-charge",
                    path=rel,
                    line=line_of(sf.stripped, m.start()),
                    message=(
                        "bare CostCat::kLock charge outside src/sim/lock.h: lock "
                        "round-trips must go through a named sim::SimLock so per-lock "
                        "attribution, hold-time stats and the rank validator cover them "
                        "(DESIGN.md §15); annotate SIM_LOCK_CHARGE_OK(reason) only when "
                        "deliberately modelling an anonymous lock"
                    ),
                )
            )
    return findings


# Raw scheduler-state mutators (DESIGN.md §16). Method-call form only, so a
# local function named SwitchTo would not match; all three names are unique
# to the scheduler machinery (Scheduler::SwitchTo, Clock::SetNow,
# LockRegistry::SetCurrentCpu).
SCHED_SWITCH_RE = re.compile(r"(?:\.|->)\s*(?:SwitchTo|SetNow|SetCurrentCpu)\s*\(")
SCHED_SWITCH_EXEMPT_PREFIX = "src/sim/"


def rule_scheduler_raw_switch(repo: Repo) -> list:
    """A raw context switch / clock write / held-stack retarget outside the
    scheduler machinery itself. Kernel code must switch CPUs via the
    sim::CpuScope RAII, which guarantees the restore and keeps switches at
    operation boundaries; tests that drive the scheduler by hand annotate
    SIM_SCHED_SWITCH_OK(reason)."""
    findings = []
    for rel, sf in sorted(repo.files.items()):
        if rel.replace(os.sep, "/").startswith(SCHED_SWITCH_EXEMPT_PREFIX):
            continue
        for m in SCHED_SWITCH_RE.finditer(sf.stripped):
            findings.append(
                Finding(
                    rule="scheduler-raw-switch",
                    path=rel,
                    line=line_of(sf.stripped, m.start()),
                    message=(
                        "raw scheduler/clock mutation outside src/sim/: switch CPUs "
                        "via sim::CpuScope so every switch pairs with its restore at "
                        "an operation boundary (DESIGN.md §16); annotate "
                        "SIM_SCHED_SWITCH_OK(reason) only in tests that deliberately "
                        "drive the scheduler by hand"
                    ),
                )
            )
    return findings


# Chaos/schedule perturbation randomness (DESIGN.md §17). Matches Rng
# construction sites ("Rng name(...)" declarations and "= Rng(...)"
# assignments) but not references ("Rng& rng"), constructor declarations
# ("explicit Rng(...)"), calls to *Rng helpers, or brace-initialized
# members ("Rng rng_{0}", the reseeded-before-use scheduler member).
CHAOS_RNG_RE = re.compile(r"\bRng\s+\w+\s*\(|=\s*Rng\s*\(")
# A decorrelated seed expression references a named stream constant, the
# golden gamma (by name or literal), or a gamma multiple.
CHAOS_DECOR_RE = re.compile(r"Stream|[Gg]amma|0x9e3779b97f4a7c15")
CHAOS_STREAM_PREFIXES = ("src/sim/chaos", "src/sim/scheduler")


def rule_chaos_undecorrelated_stream(repo: Repo) -> list:
    """An Rng constructed inside the chaos engine or the scheduler whose seed
    expression does not reference a decorrelated stream constant. Schedule
    and plan perturbation randomness must come from seeded splitmix64
    streams offset by golden-gamma multiples (seed ^ kFooStream): a raw
    Rng(seed) correlates two components' event sequences, which silently
    breaks independent shrinking and can synchronize 'independent' storms.
    Annotate SIM_CHAOS_STREAM_OK(reason) for deliberate exceptions."""
    findings = []
    for rel, sf in sorted(repo.files.items()):
        norm = rel.replace(os.sep, "/")
        if not norm.startswith(CHAOS_STREAM_PREFIXES):
            continue
        for i, line in enumerate(sf.stripped.splitlines(), start=1):
            if CHAOS_RNG_RE.search(line) and not CHAOS_DECOR_RE.search(line):
                findings.append(
                    Finding(
                        rule="chaos-undecorrelated-stream",
                        path=rel,
                        line=i,
                        message=(
                            "Rng in schedule/plan perturbation code without a "
                            "decorrelated stream constant: seed it as "
                            "seed ^ kFooStream (golden-gamma multiple) so storm "
                            "components stay independent and shrinkable "
                            "(DESIGN.md §17); annotate SIM_CHAOS_STREAM_OK(reason) "
                            "for deliberate exceptions"
                        ),
                    )
                )
    return findings


# An explicit acquire is `recv.Lock()` / `recv.Acquire()` with EMPTY parens:
# SimLock::Acquire(extra_ns) call sites use sim::LockGuard, and unrelated
# Acquire(args...) methods (e.g. ClipReservation::Acquire) take arguments.
# Releases are matched leniently (any argument list).
LOCK_ACQ_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(Lock|Acquire)\s*\(\s*\)")
LOCK_REL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:Unlock|Release)\s*\(")
# Forwarding wrappers (AddressMap::Lock -> lock_.Acquire()) are the pairing
# mechanism itself, not users of it. A declaration whose trailing token is a
# TSA attribute macro (`void Lock() SIM_ACQUIRE(lock_) { ... }`) gets
# segmented under the macro's name, so those are skipped the same way.
LOCK_SCOPE_SKIP_FUNCS = {"Lock", "Unlock", "Acquire", "Release"}
LOCK_SCOPE_SKIP_RE = re.compile(r"SIM_[A-Z_]+")


def rule_unbalanced_lock_scope(repo: Repo) -> list:
    """A receiver-matched acquire with no release on the same receiver in the
    same function body. sim::LockGuard sites never match (no explicit
    .Acquire() text), so RAII usage is clean by construction."""
    lock_h = "src/sim/lock.h"
    findings = []
    for fn in repo.functions:
        if fn.path == lock_h or fn.name in LOCK_SCOPE_SKIP_FUNCS:
            continue
        if LOCK_SCOPE_SKIP_RE.fullmatch(fn.name):
            continue
        released = {m.group(1) for m in LOCK_REL_RE.finditer(fn.body)}
        sf = repo.files[fn.path]
        for m in LOCK_ACQ_RE.finditer(fn.body):
            recv = m.group(1)
            if recv in released:
                continue
            findings.append(
                Finding(
                    rule="unbalanced-lock-scope",
                    path=fn.path,
                    line=line_of(sf.stripped, fn.body_start + m.start()),
                    message=(
                        f"'{fn.name}' acquires '{recv}' with no matching Unlock/Release "
                        "on any path in the same function: use sim::LockGuard or keep "
                        "the pair in one scope (DESIGN.md §15); annotate "
                        "SIM_LOCK_BALANCE_OK(reason) only for deliberate hand-over-hand "
                        "transfer where a callee provably releases"
                    ),
                )
            )
    return findings


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def rule_layering(repo: Repo) -> list:
    findings = []
    for rel, sf in sorted(repo.files.items()):
        parts = rel.split("/")
        if parts[0] == "src":
            module = parts[1]
        else:
            module = parts[0]
        # Raw lines: the stripper blanks string literals, which would erase
        # the include path itself.
        for lineno, line in enumerate(sf.raw_lines, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            tparts = target.split("/")
            if tparts[0] == "src":
                tmod = tparts[1] if len(tparts) > 1 else ""
            else:
                tmod = tparts[0]
            if module in TOP_MODULES:
                continue  # tests/bench/examples may include anything
            if tmod in TOP_MODULES:
                findings.append(
                    Finding(
                        rule="layer-upward-include",
                        path=rel,
                        line=lineno,
                        message=f"src code must not include test/bench code ('{target}')",
                    )
                )
                continue
            if tparts[0] != "src":
                continue  # not a repo-layer include
            allowed = LAYER_DAG.get(module)
            if allowed is None:
                findings.append(
                    Finding(
                        rule="layer-upward-include",
                        path=rel,
                        line=lineno,
                        message=(
                            f"module 'src/{module}' is not in the layer DAG; add it to "
                            "tools/simlint/simlint.py LAYER_DAG"
                        ),
                    )
                )
                continue
            if tmod not in allowed:
                findings.append(
                    Finding(
                        rule="layer-upward-include",
                        path=rel,
                        line=lineno,
                        message=(
                            f"upward include: src/{module} may not depend on src/{tmod} "
                            f"(allowed: {', '.join(sorted(allowed))}); move the shared type "
                            "down a layer instead"
                        ),
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Driver

def normalize(sf: SourceFile, line: int) -> str:
    if 1 <= line <= len(sf.raw_lines):
        return re.sub(r"\s+", " ", sf.raw_lines[line - 1].strip())
    return ""


def collect_findings(repo: Repo) -> list:
    findings = []
    findings.extend(rule_unordered_iter(repo))
    findings.extend(rule_ptr_container(repo))
    findings.extend(rule_host_nondet(repo))
    findings.extend(rule_cost_no_charge(repo))
    findings.extend(rule_layering(repo))
    findings.extend(rule_pool_fatal(repo))
    findings.extend(rule_pool_naked_alloc(repo))
    findings.extend(rule_poison_write(repo))
    findings.extend(rule_naked_lock_charge(repo))
    findings.extend(rule_unbalanced_lock_scope(repo))
    findings.extend(rule_scheduler_raw_switch(repo))
    findings.extend(rule_chaos_undecorrelated_stream(repo))

    kept = []
    for f in findings:
        sf = repo.files.get(f.path)
        if sf is None:
            continue
        token = RULE_ANNOTATION.get(f.rule)
        if token and repo.is_suppressed(sf, f.line, token):
            continue
        f.norm = normalize(sf, f.line)
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def changed_files(root: str, ref: str) -> set:
    out = set()
    for cmd in (
        ["git", "diff", "--name-only", ref],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            res = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, check=True
            )
        except (subprocess.CalledProcessError, FileNotFoundError):
            continue
        out.update(line.strip() for line in res.stdout.splitlines() if line.strip())
    return out


def load_baseline(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    counts = {}
    for e in entries:
        counts[e] = counts.get(e, 0) + 1
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, add_help=True)
    ap.add_argument("--root", default=None, help="repo root (default: two dirs above this script)")
    ap.add_argument("--all", action="store_true", help="lint the whole tree")
    ap.add_argument("--diff", nargs="?", const="HEAD", default=None, metavar="REF",
                    help="lint only files changed vs REF (default HEAD)")
    ap.add_argument("files", nargs="*", help="specific files to lint")
    ap.add_argument("--baseline", default=None, help="baseline JSON (default tools/simlint/baseline.json)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        print(__doc__)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    root = os.path.abspath(root)
    baseline_path = args.baseline or os.path.join(root, "tools", "simlint", "baseline.json")

    repo = Repo(root)
    findings = collect_findings(repo)

    # Scope filter: context always comes from the full tree; --diff / file
    # arguments only restrict which files are *reported*.
    if args.diff is not None:
        scope = {p.replace(os.sep, "/") for p in changed_files(root, args.diff)}
        findings = [f for f in findings if f.path in scope]
    elif args.files:
        scope = set()
        for p in args.files:
            rp = os.path.relpath(os.path.abspath(p), root).replace(os.sep, "/")
            scope.add(rp)
        findings = [f for f in findings if f.path in scope]
    # --all (or no scope): report everything.

    if args.update_baseline:
        entries = sorted(f.key for f in findings)
        os.makedirs(os.path.dirname(baseline_path), exist_ok=True)
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(entries, f, indent=1)
            f.write("\n")
        print(f"simlint: baseline rewritten with {len(entries)} entries -> {baseline_path}")
        return 0

    baseline = load_baseline(baseline_path)
    new_findings = []
    for f in findings:
        if baseline.get(f.key, 0) > 0:
            baseline[f.key] -= 1
            continue
        new_findings.append(f)

    for f in new_findings:
        print(f.render())
    if not args.quiet:
        scope_desc = "full tree" if args.diff is None and not args.files else "changed files"
        print(
            f"simlint: {len(new_findings)} non-baselined finding(s) "
            f"({len(findings)} total, {sum(load_baseline(baseline_path).values())} baselined, "
            f"{scope_desc})",
            file=sys.stderr,
        )
    return 1 if new_findings else 0


if __name__ == "__main__":
    sys.exit(main())

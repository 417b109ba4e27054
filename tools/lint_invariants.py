#!/usr/bin/env python3
"""Repo-invariant linter for noisim (ctest label: lint).

Enforces the invariants the compiler cannot: the determinism contract
(bit-identical results at any thread/shard/cache/kernel-tier configuration)
and the concurrency conventions that back the thread-safety annotations.

Rules (each proven live by a negative fixture under tests/lint_fixtures/,
exercised by --self-test):

  ffp-contract      every TU that includes kernels_simd_body.inc, and every
                    src/ TU that includes <immintrin.h>, must be listed
                    with -ffp-contract=off in its COMPILE_OPTIONS in BOTH
                    library builds (CMakeLists.txt and
                    perfbench/CMakeLists.txt) -- otherwise the optimizer
                    fuses the mul/add intrinsics into FMA and breaks
                    bit-identity with the scalar kernels, and a TU the
                    benchmark build does not list compiles there as its
                    scalar stub.
  no-fma            no fma()/std::fma/_mm*_fmadd* anywhere in first-party
                    C++ -- fused rounding differs from mul-then-add.
                    Marker: // lint: allow-fma(<reason>)
  unordered-fold    no range-for over a container declared unordered_*:
                    hash-order iteration makes any fold/merge over it
                    nondeterministic. Sort first, or mark an order-
                    insensitive walk with
                    // lint: unordered-iter-ok(<reason>)
  env-getenv        getenv() only inside support/env.cpp -- every other
                    site goes through support::env_get / env_positive_int
                    so validation grammar and error wording stay in one
                    place. Marker: // lint: allow-getenv(<reason>)
  claim-loop-polls  every worker claim loop (next*.fetch_add / next_item++
                    style dispensers) must poll a RunControl in the same
                    loop (or enclosing function) -- a claim loop without a
                    poll point cannot honor cancellation or deadlines.
  mutex-guards      every data member of a mutex-owning class must be
                    GUARDED_BY(...), const, atomic, a Mutex/CondVar, or
                    carry // lint: not-guarded(<reason>) -- the audit
                    behind the Clang thread-safety annotations, enforced
                    even on GCC-only checkouts.
  worker-pool       std::async appears in src/ exactly once: the launch
                    site of the shared ordered-fold queue in sim/parallel.cpp
                    (sim::run_ordered_queue), which runs both the
                    Algorithm-1 sweep and the trajectory runner. A second
                    scheduler would have to re-earn the cooperative drain,
                    fault sites and deterministic fold that queue carries.
  cache-key-covers-options
                    every tn::ContractOptions field except `control` is
                    read as copts.<field> inside PlanCache::template_key --
                    an unkeyed planner option would let the plan cache serve
                    a plan compiled under different options.
  replay-evaluator  in src/ outside tn/, a tn::PlanWorkspace -- the scratch
                    every plan replay executes in -- appears only in
                    core/circuit_network.{hpp,cpp}, whose
                    core::ReplayEvaluator runs the batched or the per-term
                    plan itself (and EnvEvaluator the environment pass);
                    tests/ and bench/ are exempt. An engine that picked
                    between batched and per-term replay by hand would need
                    its own workspace, re-growing per-engine copies of that
                    choice.
  one-deadline      in src/, `throw TimeoutError` appears only in
                    core/run_control.hpp (RunControl::poll) and
                    fault/fault.cpp (the injection sites). A wall-clock
                    budget is a RunControl deadline; an engine keeping its
                    own clock would give each compile or replay a fresh
                    budget instead of one per call.
  one-memory-guard  in src/, `catch (... MemoryOutError` appears only in
                    tn/plan.cpp (the order search skipping a candidate),
                    core/backend.cpp (simulate()'s escalation) and
                    bench_support/harness.cpp (the "MO" table cell). An
                    arena's budget is the RunControl memory ceiling; an
                    engine that caught MemoryOutError to fall back would
                    grow a second, silent guard around the same allocation.
  lib-no-test-support
                    no file under src/ outside src/bench_support/ and
                    src/mps/ includes bench_support/ or mps/ headers. Those
                    two directories serve benches, examples and tests only;
                    an engine that reached into them would tie the library
                    to its test support.
  one-shape-ladder  in src/, no function returns a shape-specialized matmul
                    instantiation (`return &matmul_small_kn<2, 4>;`,
                    `return &simd_matmul<K, N>;`): the kernels are named
                    only in each tier's KernelTable::matmul array, and
                    tsr::matmul_shape is the one ladder that picks an
                    entry. A function handing out kernels by shape is a
                    second ladder that can drift from the first.

Exit status: 0 = clean, 1 = findings (or a dead rule in --self-test).
"""

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".inc"}
SCAN_DIRS = ("src", "tests", "bench", "examples")
FIXTURE_DIR_NAME = "lint_fixtures"

RULES = (
    "ffp-contract",
    "no-fma",
    "unordered-fold",
    "env-getenv",
    "claim-loop-polls",
    "mutex-guards",
    "worker-pool",
    "cache-key-covers-options",
    "replay-evaluator",
    "one-deadline",
    "one-memory-guard",
    "lib-no-test-support",
    "one-shape-ladder",
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blank out comments, string and char literals (preserving layout), so
    rule regexes never match documentation or message text. Markers are
    collected from the raw text separately."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def marker_lines(raw_text, marker):
    """1-based line numbers carrying `// lint: <marker>(...)` (or the # CMake
    form)."""
    lines = set()
    pattern = re.compile(r"(?://|#)\s*lint:\s*" + re.escape(marker) + r"\(")
    for idx, line in enumerate(raw_text.splitlines(), start=1):
        if pattern.search(line):
            lines.add(idx)
    return lines


def has_marker(markers, line):
    """A marker covers its own line or the line directly above the match."""
    return line in markers or (line - 1) in markers


def brace_scopes(code):
    """All (open_pos, close_pos) brace pairs, via a simple matcher over
    comment/string-stripped code."""
    scopes = []
    stack = []
    for pos, ch in enumerate(code):
        if ch == "{":
            stack.append(pos)
        elif ch == "}" and stack:
            scopes.append((stack.pop(), pos))
    return scopes


def blank_nested_braces(body):
    """`body` with every nested brace group (method bodies, nested types,
    braced initializers) blanked, preserving layout, so only the direct
    member declarations remain."""
    flat = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
            flat.append(" ")
        elif ch == "}":
            depth -= 1
            flat.append(" ")
        else:
            flat.append(ch if (depth == 0 or ch == "\n") else " ")
    return "".join(flat)


def matching_close(code, open_pos):
    """Position of the bracket closing the '(' or '{' at open_pos
    (len(code) if unbalanced)."""
    opener = code[open_pos]
    closer = ")" if opener == "(" else "}"
    depth = 0
    for k in range(open_pos, len(code)):
        if code[k] == opener:
            depth += 1
        elif code[k] == closer:
            depth -= 1
            if depth == 0:
                return k
    return len(code)


def scope_kind(code, open_pos):
    """Classify the construct owning the brace at open_pos:
    'loop', 'skip' (if/switch/catch/try/do/else or unknown), 'boundary'
    (class/struct/namespace/enum/union), or 'function'."""
    header = code[max(0, open_pos - 300):open_pos].rstrip()
    if re.search(r"\b(?:class|struct|namespace|union|enum)\s+[\w:]*\s*(?:final\s*)?(?::[^;{}]*)?$",
                 header):
        return "boundary"
    if re.search(r"\b(?:else|try|do)\s*$", header):
        return "skip"
    if header.endswith(")"):
        # Walk back over the parenthesized tail to the introducing token.
        depth = 0
        k = len(header) - 1
        while k >= 0:
            if header[k] == ")":
                depth += 1
            elif header[k] == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        word = re.search(r"(\w+)\s*$", header[:k])
        token = word.group(1) if word else ""
        if token in ("while", "for"):
            return "loop"
        if token in ("if", "switch", "catch"):
            return "skip"
        return "function"  # fn decl, lambda intro, or annotation macro tail
    return "skip"


# --- rules -------------------------------------------------------------------

# The CMake lists that compile the library sources, relative to the scan
# root: the top-level build and the standalone benchmark build.
LIBRARY_BUILDS = ("CMakeLists.txt", "perfbench/CMakeLists.txt")
SIMD_BODY_RE = re.compile(r'^\s*#\s*include\s+"[^"]*kernels_simd_body\.inc"', re.MULTILINE)
IMMINTRIN_RE = re.compile(r"^\s*#\s*include\s+<immintrin\.h>", re.MULTILINE)
TU_SUFFIXES = {".cpp", ".cc", ".cxx"}


def contract_off_listing(cmake, base):
    """'flag' when a set_source_files_properties call names `base` with
    -ffp-contract=off, 'listed' when one names it without, else None."""
    result = None
    for block in re.finditer(r"set_source_files_properties\s*\(", cmake):
        # Match the property call's closing paren.
        depth, k = 0, block.end() - 1
        while k < len(cmake):
            if cmake[k] == "(":
                depth += 1
            elif cmake[k] == ")":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        call = cmake[block.start():k + 1]
        if base in call:
            if "-ffp-contract=off" in call:
                return "flag"
            result = "listed"
    return result


def check_ffp_contract(root, cxx_files):
    builds = []
    for rel in LIBRARY_BUILDS:
        path = root / rel
        if path.is_file():
            builds.append((rel, path.read_text(encoding="utf-8", errors="replace")))
    findings = []
    for path, text in cxx_files:
        # Raw text, not strip_code: the include path IS a string literal.
        m = SIMD_BODY_RE.search(text)
        what = "includes kernels_simd_body.inc"
        if not m and path.suffix in TU_SUFFIXES:
            try:
                under_src = path.relative_to(root).parts[0] == "src"
            except ValueError:
                under_src = False
            m = IMMINTRIN_RE.search(text) if under_src else None
            what = "includes <immintrin.h>"
        if not m:
            continue
        base = path.name
        gaps = []
        for rel, cmake in builds:
            listing = contract_off_listing(cmake, base)
            if listing == "listed":
                gaps.append(f"is listed in {rel} without -ffp-contract=off")
            elif listing is None:
                gaps.append(f"has no set_source_files_properties entry in {rel}")
        if not builds:
            gaps.append("has no library CMakeLists.txt to list it")
        for gap in gaps:
            findings.append(Finding(
                path, line_of(text, m.start()), "ffp-contract",
                f"{base} {what} but {gap}; the optimizer may fuse mul/add "
                "into FMA and break scalar/SIMD bit-identity"))
    return findings


FMA_RE = re.compile(r"\bstd\s*::\s*fmaf?\b|(?<![\w.])fmaf?\s*\(|_mm\d*_f(?:n?madd|n?msub)_\w+")


def check_no_fma(cxx_files):
    findings = []
    for path, text in cxx_files:
        code = strip_code(text)
        markers = marker_lines(text, "allow-fma")
        for m in FMA_RE.finditer(code):
            ln = line_of(code, m.start())
            if has_marker(markers, ln):
                continue
            findings.append(Finding(
                path, ln, "no-fma",
                f"fused multiply-add '{m.group(0).strip()}' rounds once where the "
                "deterministic kernels round twice; use mul-then-add "
                "(// lint: allow-fma(<reason>) to override)"))
    return findings


UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")


def unordered_names(code):
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Skip to the matching '>' of the template argument list.
        depth, k = 0, m.end() - 1
        while k < len(code):
            if code[k] == "<":
                depth += 1
            elif code[k] == ">":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        tail = code[k + 1:k + 200]
        name = re.match(r"\s*[&*]?\s*(\w+)", tail)
        if name:
            names.add(name.group(1))
    return names


def check_unordered_fold(cxx_files):
    by_stem = {}
    for path, text in cxx_files:
        by_stem.setdefault(path.stem, []).append((path, text))
    findings = []
    for path, text in cxx_files:
        code = strip_code(text)
        # Names declared unordered here or in same-stem companions (the
        # foo.cpp / foo.hpp pairing catches members used in the TU).
        names = unordered_names(code)
        for other_path, other_text in by_stem.get(path.stem, []):
            if other_path != path:
                names |= unordered_names(strip_code(other_text))
        if not names:
            continue
        markers = marker_lines(text, "unordered-iter-ok")
        for m in re.finditer(r"for\s*\([^;()]*?:\s*(\w+)\s*\)", code):
            if m.group(1) not in names:
                continue
            ln = line_of(code, m.start())
            if has_marker(markers, ln):
                continue
            findings.append(Finding(
                path, ln, "unordered-fold",
                f"range-for over unordered container '{m.group(1)}' visits "
                "elements in hash order; any fold over it is nondeterministic "
                "-- sort first, or mark an order-insensitive walk with "
                "// lint: unordered-iter-ok(<reason>)"))
    return findings


GETENV_RE = re.compile(r"\bgetenv\s*\(")


def check_env_getenv(cxx_files):
    findings = []
    for path, text in cxx_files:
        if path.parts[-2:] == ("support", "env.cpp"):
            continue  # the single sanctioned call site
        code = strip_code(text)
        markers = marker_lines(text, "allow-getenv")
        for m in GETENV_RE.finditer(code):
            ln = line_of(code, m.start())
            if has_marker(markers, ln):
                continue
            findings.append(Finding(
                path, ln, "env-getenv",
                "naked getenv(); go through support::env_get / "
                "support::env_positive_int so the strict-validation grammar "
                "and error wording stay centralized "
                "(// lint: allow-getenv(<reason>) to override)"))
    return findings


CLAIM_RE = re.compile(
    r"\bnext_?(?:item|task|work|chunk|range)\w*\s*(?:\+\+|\.fetch_add\s*\()"
    r"|\bnext\s*\.\s*fetch_add\s*\(")


def check_claim_loop_polls(cxx_files):
    findings = []
    for path, text in cxx_files:
        code = strip_code(text)
        scopes = brace_scopes(code)
        for m in CLAIM_RE.finditer(code):
            enclosing = sorted((o, c) for o, c in scopes if o < m.start() < c)
            enclosing.reverse()  # innermost first
            verdict = None
            for open_pos, close_pos in enclosing:
                kind = scope_kind(code, open_pos)
                if kind == "skip":
                    continue
                if kind == "boundary":
                    verdict = False
                    break
                verdict = "poll" in code[open_pos:close_pos]
                break
            if verdict:
                continue
            findings.append(Finding(
                path, line_of(code, m.start()), "claim-loop-polls",
                f"work-claim '{m.group(0).strip()}' has no RunControl poll in "
                "its claim loop; a dispenser that never polls cannot honor "
                "cancellation or deadlines"))
    return findings


MUTEX_MEMBER_RE = re.compile(r"\b(?:support\s*::\s*Mutex|std\s*::\s*(?:shared_|recursive_)?mutex)\b")
MEMBER_OK_RE = re.compile(
    r"GUARDED_BY\s*\(|PT_GUARDED_BY\s*\(|\bconst\b|\batomic\b|\bCondVar\b|"
    r"\bMutex\b|\bmutex\b|\bstatic\b|\busing\b|\btypedef\b|\bfriend\b")


def check_mutex_guards(cxx_files):
    findings = []
    for path, text in cxx_files:
        if path.parts[-2:] == ("support", "mutex.hpp"):
            continue  # the capability wrappers themselves
        code = strip_code(text)
        if not MUTEX_MEMBER_RE.search(code):
            continue
        markers = marker_lines(text, "not-guarded")
        for open_pos, close_pos in brace_scopes(code):
            if scope_kind(code, open_pos) != "boundary":
                continue
            header = code[max(0, open_pos - 300):open_pos]
            if not re.search(r"\b(?:class|struct)\s+[\w:]*\s*(?:final\s*)?(?::[^;{}]*)?$",
                             header.rstrip()):
                continue
            flat = blank_nested_braces(code[open_pos + 1:close_pos])
            if not MUTEX_MEMBER_RE.search(flat):
                continue  # the mutex lives in a nested type, not this one
            offset = 0
            for stmt in flat.split(";"):
                stmt_pos = open_pos + 1 + offset
                offset += len(stmt) + 1
                decl = stmt.strip()
                if not decl or MEMBER_OK_RE.search(decl):
                    continue
                # Drop access specifiers and skip nested type declarations
                # (they get their own audit as separate scopes).
                decl = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", decl)
                if re.match(r"^(?:class|struct|enum|union)\b", decl):
                    continue
                # A data member: `Type name;`, `Type name = ...;`, or an
                # array -- anything with top-level parens is a function.
                dm = re.match(
                    r"^(?:mutable\s+)?[A-Za-z_][\w:<>,*&\s]*[\s&*>]"
                    r"(\w+)(?:\s*\[[^\]]*\])?\s*(?:=[^;]*)?$", decl)
                if not dm or "(" in decl:
                    continue
                ln = line_of(code, stmt_pos + stmt.find(stmt.strip()[0]) if stmt.strip() else stmt_pos)
                if has_marker(markers, ln):
                    continue
                findings.append(Finding(
                    path, ln, "mutex-guards",
                    f"member '{dm.group(1)}' of a mutex-owning class is neither "
                    "GUARDED_BY(...) nor const/atomic; annotate it, or mark a "
                    "deliberately unguarded member with "
                    "// lint: not-guarded(<reason>)"))
    return findings


ASYNC_RE = re.compile(r"\bstd\s*::\s*async\b")
# The sanctioned launch site, as a path relative to the scan root, and how
# many std::async calls it may hold.
WORKER_POOL_SITES = {("src", "sim", "parallel.cpp"): 1}


def check_worker_pool(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        try:
            rel = path.relative_to(root).parts
        except ValueError:
            continue
        if not rel or rel[0] != "src":
            continue
        allowed = WORKER_POOL_SITES.get(rel, 0)
        code = strip_code(text)
        for count, m in enumerate(ASYNC_RE.finditer(code), start=1):
            if count <= allowed:
                continue
            where = ("a second launch site in this file" if allowed
                     else "a launch site outside the shared work queue")
            findings.append(Finding(
                path, line_of(code, m.start()), "worker-pool",
                f"std::async at {where}; src/ schedules work only through the "
                "one ordered-fold queue (sim::run_ordered_queue in "
                "sim/parallel.cpp) -- run new parallel work on it"))
    return findings


WORKSPACE_RE = re.compile(r"\bPlanWorkspace\b")
# The evaluators' home: the header declares them, the TU runs their plans.
REPLAY_EVALUATOR_FILES = {("src", "core", "circuit_network.hpp"),
                          ("src", "core", "circuit_network.cpp")}


def check_replay_evaluator(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        try:
            rel = path.relative_to(root).parts
        except ValueError:
            continue
        if (len(rel) < 2 or rel[0] != "src" or rel[1] == "tn"
                or rel in REPLAY_EVALUATOR_FILES):
            continue
        code = strip_code(text)
        for m in WORKSPACE_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "replay-evaluator",
                "a plan workspace outside core/circuit_network.{hpp,cpp}; plan "
                "replay in src/ goes through core::ReplayEvaluator (with a "
                "batched plan from batched_plan_or_null, or none for per-term "
                "replay), never a hand-picked executor"))
    return findings


THROW_TIMEOUT_RE = re.compile(r"\bthrow\s+(?:[\w:]*::)?TimeoutError\b")
# RunControl::poll, and the fault-injection sites that stand in for it.
ONE_DEADLINE_FILES = {("src", "core", "run_control.hpp"),
                      ("src", "fault", "fault.cpp")}


def check_one_deadline(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        try:
            rel = path.relative_to(root).parts
        except ValueError:
            continue
        if not rel or rel[0] != "src" or rel in ONE_DEADLINE_FILES:
            continue
        code = strip_code(text)
        for m in THROW_TIMEOUT_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "one-deadline",
                "TimeoutError thrown outside core/run_control.hpp and "
                "fault/fault.cpp; src/ has one wall-clock budget, a "
                "core::RunControl deadline -- poll the control instead of "
                "keeping a clock"))
    return findings


CATCH_MEMORY_OUT_RE = re.compile(
    r"\bcatch\s*\(\s*(?:const\s+)?(?:[\w:]*::)?MemoryOutError\b")
# The order search, simulate()'s escalation, and the benchmark "MO" cell.
ONE_MEMORY_GUARD_FILES = {("src", "tn", "plan.cpp"),
                          ("src", "core", "backend.cpp"),
                          ("src", "bench_support", "harness.cpp")}


def check_one_memory_guard(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        try:
            rel = path.relative_to(root).parts
        except ValueError:
            continue
        if not rel or rel[0] != "src" or rel in ONE_MEMORY_GUARD_FILES:
            continue
        code = strip_code(text)
        for m in CATCH_MEMORY_OUT_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "one-memory-guard",
                "MemoryOutError caught outside tn/plan.cpp, core/backend.cpp and "
                "bench_support/harness.cpp; an arena's budget is the "
                "core::RunControl memory ceiling -- let MemoryOutError "
                "propagate instead of falling back"))
    return findings


# Raw text, not strip_code: the include path is a string literal.
TEST_SUPPORT_INCLUDE_RE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*[<"]((?:bench_support|mps)/[^>"]*)[>"]', re.MULTILINE)
TEST_SUPPORT_DIRS = {"bench_support", "mps"}


def check_lib_no_test_support(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        try:
            rel = path.relative_to(root).parts
        except ValueError:
            continue
        if len(rel) < 2 or rel[0] != "src" or rel[1] in TEST_SUPPORT_DIRS:
            continue
        for m in TEST_SUPPORT_INCLUDE_RE.finditer(text):
            findings.append(Finding(
                path, line_of(text, m.start()), "lib-no-test-support",
                f"src/ includes '{m.group(1)}'; bench_support/ and mps/ serve "
                "benches, examples and tests, and the library engines must "
                "not depend on them"))
    return findings


# `return &simd_matmul<2, 4>;`, `return matmul_small_k<Kc>;`, qualified or not.
RETURN_MATMUL_INSTANCE_RE = re.compile(
    r"\breturn\s+&?\s*(?:[\w:]*::)?\w*matmul\w*\s*<")


def check_one_shape_ladder(root, cxx_files):
    findings = []
    for path, text in cxx_files:
        try:
            rel = path.relative_to(root).parts
        except ValueError:
            continue
        if not rel or rel[0] != "src":
            continue
        code = strip_code(text)
        for m in RETURN_MATMUL_INSTANCE_RE.finditer(code):
            findings.append(Finding(
                path, line_of(code, m.start()), "one-shape-ladder",
                "a function returns a shape-specialized matmul kernel; name "
                "kernels only in a tier's KernelTable::matmul array and pick "
                "the entry with tsr::matmul_shape, the one shape ladder"))
    return findings


OPTIONS_STRUCT_RE = re.compile(r"\bstruct\s+ContractOptions\s*\{")
TEMPLATE_KEY_RE = re.compile(r"\bPlanCache\s*::\s*template_key\s*\(")
# Options that never change what a plan computes, so keys leave them out.
KEY_EXEMPT_FIELDS = {"control"}


def struct_fields(code, open_pos):
    """(name, position) of each data member declared directly in the braced
    body at open_pos."""
    flat = blank_nested_braces(code[open_pos + 1:matching_close(code, open_pos)])
    fields = []
    offset = 0
    for stmt in flat.split(";"):
        stmt_pos = open_pos + 1 + offset
        offset += len(stmt) + 1
        decl = stmt.strip()
        if not decl or "(" in decl:
            continue
        m = re.match(r"^(?:mutable\s+)?[A-Za-z_][\w:<>,*&\s]*[\s&*>](\w+)\s*(?:=[^;]*)?$",
                     decl)
        if m and not re.match(r"^(?:using|typedef|friend|static)\b", decl):
            fields.append((m.group(1), stmt_pos + stmt.find(decl)))
    return fields


def check_cache_key_covers_options(cxx_files):
    template_key_body = None
    options = []  # (path, code, struct match)
    for path, text in cxx_files:
        code = strip_code(text)
        for m in TEMPLATE_KEY_RE.finditer(code):
            # A definition: the parameter list is followed by a body.
            close_paren = matching_close(code, m.end() - 1)
            body = re.match(r"\s*\{", code[close_paren + 1:])
            if body:
                open_pos = close_paren + body.end()
                template_key_body = code[open_pos:matching_close(code, open_pos)]
        m = OPTIONS_STRUCT_RE.search(code)
        if m:
            options.append((path, code, m))
    findings = []
    for path, code, m in options:
        if template_key_body is None:
            findings.append(Finding(
                path, line_of(code, m.start()), "cache-key-covers-options",
                "ContractOptions is defined but no PlanCache::template_key "
                "definition was found to key it"))
            continue
        for name, pos in struct_fields(code, m.end() - 1):
            if name in KEY_EXEMPT_FIELDS:
                continue
            if re.search(r"\bcopts\s*\.\s*" + re.escape(name) + r"\b", template_key_body):
                continue
            findings.append(Finding(
                path, line_of(code, pos), "cache-key-covers-options",
                f"ContractOptions::{name} is not serialized as copts.{name} in "
                "PlanCache::template_key; the plan cache could serve a plan "
                "compiled under a different value"))
    return findings


# --- driver ------------------------------------------------------------------

def collect(root, fixture_mode):
    cxx_files = []
    cmake_texts = []
    if fixture_mode:
        walk_roots = [root]
    else:
        walk_roots = [root / d for d in SCAN_DIRS if (root / d).is_dir()]
        top = root / "CMakeLists.txt"
        if top.is_file():
            cmake_texts.append((top, top.read_text(encoding="utf-8", errors="replace")))
    for wr in walk_roots:
        for path in sorted(wr.rglob("*")):
            if not path.is_file():
                continue
            if not fixture_mode and FIXTURE_DIR_NAME in path.parts:
                continue
            if path.suffix in CXX_SUFFIXES:
                cxx_files.append((path, path.read_text(encoding="utf-8", errors="replace")))
            elif path.name == "CMakeLists.txt":
                cmake_texts.append((path, path.read_text(encoding="utf-8", errors="replace")))
    return cxx_files, cmake_texts


def run_rules(root, cxx_files):
    findings = []
    findings += check_ffp_contract(root, cxx_files)
    findings += check_no_fma(cxx_files)
    findings += check_unordered_fold(cxx_files)
    findings += check_env_getenv(cxx_files)
    findings += check_claim_loop_polls(cxx_files)
    findings += check_mutex_guards(cxx_files)
    findings += check_worker_pool(root, cxx_files)
    findings += check_cache_key_covers_options(cxx_files)
    findings += check_replay_evaluator(root, cxx_files)
    findings += check_one_deadline(root, cxx_files)
    findings += check_one_memory_guard(root, cxx_files)
    findings += check_lib_no_test_support(root, cxx_files)
    findings += check_one_shape_ladder(root, cxx_files)
    return findings


def self_test(repo_root):
    """Prove every rule LIVE: scan tests/lint_fixtures/ as if it were a repo
    and require each fixture's `lint-fixture: expect(<rule>)` markers to be
    reported exactly -- a rule whose fixture stops firing is a dead rule."""
    fixture_root = repo_root / "tests" / FIXTURE_DIR_NAME
    if not fixture_root.is_dir():
        print(f"lint_invariants --self-test: missing {fixture_root}", file=sys.stderr)
        return 1
    cxx_files, cmake_texts = collect(fixture_root, fixture_mode=True)
    expected = {}  # path -> set of rules
    expect_re = re.compile(r"lint-fixture:\s*expect\((\S+?)\)")
    for path, text in cxx_files + cmake_texts:
        for m in expect_re.finditer(text):
            expected.setdefault(path, set()).add(m.group(1))
    findings = run_rules(fixture_root, cxx_files)
    got = {}
    for f in findings:
        got.setdefault(f.path, set()).add(f.rule)

    failures = []
    for path, rules in sorted(expected.items()):
        missing = rules - got.get(path, set())
        for rule in sorted(missing):
            failures.append(f"{path}: rule '{rule}' did NOT fire on its fixture (dead rule?)")
    for path, rules in sorted(got.items()):
        surplus = rules - expected.get(path, set())
        for rule in sorted(surplus):
            failures.append(f"{path}: rule '{rule}' fired but the fixture does not expect it")
    covered = set().union(*expected.values()) if expected else set()
    for rule in RULES:
        if rule not in covered:
            failures.append(f"no fixture exercises rule '{rule}'")

    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        print(f"lint_invariants --self-test: FAILED ({len(failures)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"lint_invariants --self-test: all {len(RULES)} rules fire on their fixtures")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: the checkout containing this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules against tests/lint_fixtures/ and require "
                         "every rule to fire where its fixture expects it")
    args = ap.parse_args()
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    cxx_files, cmake_texts = collect(root, fixture_mode=False)
    findings = run_rules(root, cxx_files)
    for f in findings:
        try:
            f.path = f.path.relative_to(root)
        except ValueError:
            pass
        print(f, file=sys.stderr)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(cxx_files)} C++ files, "
          f"{len(cmake_texts)} CMake files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

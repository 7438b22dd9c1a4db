#!/usr/bin/env python3
"""Determinism / portability linter for the distclk sources.

The distributed CLK reproduction pins simulated trajectories by hash
(tests/test_runtime.cpp), so any construct whose behavior varies across
runs, platforms, or allocators silently breaks the fixture. This linter
walks src/ and fails on the project-banned constructs:

  banned-rng            std::rand / srand / std::random_device / time(...)
                        anywhere outside src/util/rng.h — all randomness
                        must flow through the seeded distclk::Rng.
  unordered-iteration   range-for or begin()/end() iteration over a
                        variable declared as unordered_map/unordered_set in
                        trajectory-affecting code (src/core, src/lk,
                        src/tsp, src/net): hash-table iteration order is
                        libstdc++-version- and allocation-dependent.
  unordered-decl        any unordered_map/unordered_set declaration in
                        trajectory-affecting code or src/obs. Weaker than
                        the iteration rule: keyed lookup is deterministic,
                        so these are allowlistable with a justification.
  pointer-keyed         std::map/std::set keyed by a pointer type:
                        iteration order equals allocation order, which
                        varies run to run.
  float-distance        the `float` type in distance-path code (src/tsp,
                        src/lk): TSPLIB semantics are defined on double
                        rounded to integer; float intermediates change
                        rounding across optimization levels.
  raw-new-array         `new T[n]`: unmanaged array allocations bypass the
                        bounds- and leak-checking the sanitizer presets
                        rely on; use std::vector.
  bare-sync             std::mutex / std::lock_guard / std::unique_lock /
                        std::condition_variable / ... (or <mutex>,
                        <shared_mutex>, <condition_variable> includes)
                        anywhere outside src/util/sync.h. All locking goes
                        through the capability-annotated, rank-audited
                        sync::Mutex/CondVar wrappers so that the clang
                        thread-safety build (tsa preset) and the lock-rank
                        audit see every acquisition. Not allowlistable by
                        policy: if the wrappers cannot express a pattern,
                        extend the wrappers.
  threading             std::thread/mutex/condition_variable/atomic/... (or
                        their includes) in the single-threaded search core
                        (src/lk, src/tsp) and the job layer (src/svc).
                        Thread scheduling is the easiest way to leak
                        nondeterminism into a trajectory, so every use must
                        be allowlisted with a justification explaining why
                        the construct cannot affect the result (e.g. the
                        solver pool, whose scheduling decides only WHICH
                        job runs when — each job's trajectory stays a pure
                        function of its spec). src/core, src/net, and
                        src/obs host the runtime/transport/metrics layers
                        and legitimately use threads; they stay out of
                        scope.

Findings are suppressed by tools/lint_allowlist.txt entries of the form

  rule | path | line-substring | justification

where `path` is repo-relative and `line-substring` must occur in the
flagged source line (entries survive line-number drift). Unused entries
are reported as warnings so the allowlist cannot rot.

Exit status: 0 = clean (or all findings allowlisted), 1 = violations,
2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

TRAJECTORY_DIRS = ("core", "lk", "tsp", "net")
UNORDERED_DECL_DIRS = TRAJECTORY_DIRS + ("obs",)
FLOAT_DIRS = ("tsp", "lk")
THREADING_DIRS = ("lk", "tsp", "svc")
SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

RNG_EXEMPT = {"util/rng.h"}

BANNED_RNG = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])srand\s*\("), "std::rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|\))"),
     "time() wall-clock seeding"),
]

UNORDERED_TYPE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
# `std::unordered_map<K, V> name` / `... name{...}` / `... name;`
UNORDERED_DECL_NAME = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)\s*[;{=(]")
POINTER_KEYED = re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<[^,>]*\*")
FLOAT_TYPE = re.compile(r"(?<![\w.])float(?![\w.])")
RAW_NEW_ARRAY = re.compile(r"\bnew\s+[A-Za-z_][\w:<>, ]*\s*\[")
BARE_SYNC_EXEMPT = {"util/sync.h"}
BARE_SYNC_USE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable(?:_any)?)\b")
BARE_SYNC_INCLUDE = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
THREADING_USE = re.compile(
    r"\bstd::(?:jthread|thread|mutex|shared_mutex|recursive_mutex"
    r"|condition_variable(?:_any)?|atomic\w*|future|promise|async"
    r"|barrier|latch|counting_semaphore|binary_semaphore|stop_token)\b")
THREADING_INCLUDE = re.compile(
    r"#\s*include\s*<(?:thread|mutex|shared_mutex|condition_variable"
    r"|atomic|future|barrier|latch|semaphore|stop_token)>")

COMMENT_LINE = re.compile(r"^\s*(//|\*|/\*)")


class Finding:
    def __init__(self, rule: str, path: str, lineno: int, line: str,
                 message: str):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.line = line.rstrip()
        self.message = message

    def __str__(self) -> str:
        return (f"{self.path}:{self.lineno}: [{self.rule}] {self.message}\n"
                f"    {self.line.strip()}")


def in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return any(rel.startswith(d + "/") for d in dirs)


def strip_strings(line: str) -> str:
    """Blank out string/char literals so their contents never match rules."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'',
                  lambda m: '"' + " " * (len(m.group(0)) - 2) + '"', line)


def lint_file(rel: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.splitlines()

    # Pass 1: names declared with an unordered container type in this file.
    unordered_names: set[str] = set()
    for line in lines:
        if COMMENT_LINE.match(line):
            continue
        m = UNORDERED_DECL_NAME.search(strip_strings(line))
        if m:
            unordered_names.add(m.group(1))

    iter_pattern = None
    if unordered_names:
        names = "|".join(re.escape(n) for n in sorted(unordered_names))
        # `for (... : name)` or `name.begin(` / `name.end(` /
        # `name.cbegin(` / `name.cend(`.
        iter_pattern = re.compile(
            rf"for\s*\([^;)]*:\s*&?\s*(?:{names})\s*\)"
            rf"|\b(?:{names})\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")

    for lineno, raw in enumerate(lines, start=1):
        if COMMENT_LINE.match(raw):
            continue
        line = strip_strings(raw)

        if rel not in RNG_EXEMPT:
            for pattern, what in BANNED_RNG:
                if pattern.search(line):
                    findings.append(Finding(
                        "banned-rng", rel, lineno, raw,
                        f"{what}: all randomness must flow through the "
                        "seeded distclk::Rng (src/util/rng.h)"))

        if (UNORDERED_TYPE.search(line) and in_dirs(rel, UNORDERED_DECL_DIRS)
                and not line.lstrip().startswith("#")):
            findings.append(Finding(
                "unordered-decl", rel, lineno, raw,
                "unordered container in determinism-sensitive code; "
                "allowlist with a justification or use an ordered/indexed "
                "structure"))

        if (iter_pattern and in_dirs(rel, TRAJECTORY_DIRS)
                and iter_pattern.search(line)):
            findings.append(Finding(
                "unordered-iteration", rel, lineno, raw,
                "iteration over a hash container in trajectory-affecting "
                "code: order is allocator/libstdc++ dependent"))

        if POINTER_KEYED.search(line):
            findings.append(Finding(
                "pointer-keyed", rel, lineno, raw,
                "ordered container keyed by pointer: iteration order "
                "equals allocation order"))

        if FLOAT_TYPE.search(line) and in_dirs(rel, FLOAT_DIRS):
            findings.append(Finding(
                "float-distance", rel, lineno, raw,
                "float in distance-path code: TSPLIB rounding is defined "
                "on double"))

        if RAW_NEW_ARRAY.search(line):
            findings.append(Finding(
                "raw-new-array", rel, lineno, raw,
                "raw new[]: use std::vector so sanitizer presets see the "
                "allocation"))

        if (rel not in BARE_SYNC_EXEMPT
                and (BARE_SYNC_USE.search(line)
                     or BARE_SYNC_INCLUDE.search(line))):
            findings.append(Finding(
                "bare-sync", rel, lineno, raw,
                "raw standard-library lock primitive: use the capability-"
                "annotated, rank-audited wrappers in util/sync.h"))

        if (in_dirs(rel, THREADING_DIRS)
                and (THREADING_USE.search(line)
                     or THREADING_INCLUDE.search(line))):
            findings.append(Finding(
                "threading", rel, lineno, raw,
                "threading primitive in the search core: justify (in the "
                "allowlist) why scheduling cannot leak into the trajectory"))

    return findings


class AllowlistEntry:
    def __init__(self, rule: str, path: str, substring: str,
                 justification: str, lineno: int):
        self.rule = rule
        self.path = path
        self.substring = substring
        self.justification = justification
        self.lineno = lineno
        self.used = False

    def matches(self, f: Finding) -> bool:
        return (self.rule == f.rule and self.path == f.path
                and self.substring in f.line)


def load_allowlist(path: Path) -> list[AllowlistEntry]:
    entries: list[AllowlistEntry] = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4 or not all(parts):
            raise SystemExit(
                f"{path}:{lineno}: malformed allowlist entry (expected "
                "'rule | path | line-substring | justification')")
        entries.append(AllowlistEntry(*parts, lineno))
    return entries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default="src",
                    help="source tree to lint (default: src)")
    ap.add_argument("--allowlist", default="tools/lint_allowlist.txt")
    args = ap.parse_args()

    root = Path(args.root)
    if not root.is_dir():
        print(f"lint_determinism: no such directory: {root}", file=sys.stderr)
        return 2
    allowlist = load_allowlist(Path(args.allowlist))

    files = sorted(p for p in root.rglob("*")
                   if p.suffix in SOURCE_SUFFIXES and p.is_file())
    violations: list[Finding] = []
    suppressed = 0
    for path in files:
        rel = path.relative_to(root).as_posix()
        for f in lint_file(rel, path.read_text(errors="replace")):
            allowed = False
            for entry in allowlist:
                if entry.matches(f):
                    entry.used = True
                    allowed = True
            if allowed:
                suppressed += 1
            else:
                violations.append(f)

    for f in violations:
        print(f)
    stale = [e for e in allowlist if not e.used]
    for e in stale:
        print(f"warning: {args.allowlist}:{e.lineno}: unused allowlist entry "
              f"({e.rule} | {e.path})", file=sys.stderr)

    print(f"lint_determinism: {len(files)} files, "
          f"{len(violations)} violation(s), {suppressed} allowlisted",
          file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

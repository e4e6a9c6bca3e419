#!/usr/bin/env python3
"""Project-invariant linter for concurrency rules the compiler can't see.

Rules
-----
epoch-guard-blocking
    An EpochGuard (common/epoch.h) pins reclamation for the whole domain,
    so its scope must never span a blocking wait: ParkingLot parks,
    WaitDurable, condvar waits, or socket I/O (the PR-2 review bug class).
    Flags any blocking call lexically inside a live EpochGuard scope.

raw-std-sync
    Raw std::mutex / std::shared_mutex / std::condition_variable (and
    their lock holders) are banned outside common/thread_annotations.h:
    they are invisible to Clang's thread-safety analysis, so a field they
    guard silently loses its GUARDED_BY checking. Use the annotated
    Mutex/SharedMutex/CondVar/MutexLock wrappers.

unjustified-relaxed
    std::memory_order_relaxed needs either a `// relaxed-ok: <reason>`
    comment on the same or one of the three preceding lines, or a
    per-file allowlist entry below (for protocol files where the ordering
    argument lives in a design doc and per-site comments would be noise).

include-layering
    A src/ file may include headers only from its own directory's layer
    and the layers below it in the library DAG of src/CMakeLists.txt
    (common < index, log < memdb, stordb < core < server < repl). The link
    step cannot catch a header-only include from a higher layer (or a
    sibling, such as memdb from stordb), so this rule does.

tsan-suppression
    Every entry in .tsan-suppressions must (a) carry its own justification
    comment directly above it and (b) name a symbol that still exists in
    src/ — dead suppressions outlive the code they excused and mask
    genuine races in later rewrites.

Engine
------
A comment- and string-aware lexer: block comments and literals are
stripped before matching, and EpochGuard scopes are tracked by brace
depth. It needs nothing beyond the standard library, so it runs the same
in every build environment.

Baseline
--------
Findings are compared against scripts/check_invariants_baseline.txt.
New findings fail (exit 1); findings in the baseline pass; baseline
entries that no longer fire are reported so the baseline can be shrunk.
Run with --update-baseline to rewrite the baseline from the current tree.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# Files whose memory_order_relaxed sites are justified wholesale. Keep the
# reason honest: the entry must point at where the ordering argument lives.
RELAXED_ALLOWLIST = {
    "src/core/csr.cc":
        "CSR commit/install protocol: orderings are proven as a unit in the "
        "file-top protocol comment and DESIGN.md (Timestamps & the CSR); "
        "40+ sites, per-site comments would drown the protocol",
    "src/log/log_manager.cc":
        "lock-free append ring: reserve/fill/flush ordering proven in the "
        "ring protocol comment; relaxed sites are stats and ring cursors "
        "whose edges are the documented acquire/release pairs",
    "src/server/server.cc":
        "monotone server stats counters (accepted/closed/frames/...); "
        "read-only diagnostics, no ordering consumers",
    "src/stordb/buffer_pool.cc":
        "clock-sweep hints and hit/miss/eviction stats; the frame state "
        "machine's edges are the documented acquire/release pairs",
    "src/stordb/buffer_pool.h":
        "same counters' inline accessors (see buffer_pool.cc entry)",
    "src/common/sharded_counter.h":
        "sharded statistic counters: per-shard relaxed increments folded "
        "on read, documented at the class comment",
}

# Library layers (src/<dir>/) and what each may include besides itself:
# the transitive DEPS of its target in src/CMakeLists.txt.
LAYER_DEPS = {
    "common": set(),
    "index": {"common"},
    "log": {"common"},
    "memdb": {"common", "index", "log"},
    "stordb": {"common", "index", "log"},
    "core": {"common", "index", "log", "memdb", "stordb"},
    "server": {"common", "index", "log", "memdb", "stordb", "core"},
    "repl": {"common", "index", "log", "memdb", "stordb", "core", "server"},
}

# What counts as "blocking" inside an EpochGuard scope. Deliberately
# syntactic: the point is to force the guard to be dropped (copy values
# out) before any of these, however indirect the call.
BLOCKING_PATTERNS = [
    (re.compile(r"\bParkingLot::Park(For)?\b"), "ParkingLot park"),
    (re.compile(r"\bWaitDurable\s*\("), "durable-LSN wait"),
    (re.compile(r"\.Wait(For|Until)?\s*\("), "condvar wait"),
    (re.compile(r"\b(sleep_for|sleep_until)\s*\("), "thread sleep"),
    (re.compile(r"\.(Recv|Send|TryRecv)\s*\("), "replication socket I/O"),
    (re.compile(r"::(recv|send|read|write|accept4?|connect)\s*\("),
     "raw socket/file I/O"),
]

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b")

# Files allowed to touch raw std primitives: the wrapper itself.
RAW_SYNC_EXEMPT = {"src/common/thread_annotations.h"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(\w+)/')
EPOCH_GUARD_RE = re.compile(r"\bEpochGuard\s+(\w+)\s*[({]")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_OK_RE = re.compile(r"relaxed-ok:")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def fingerprint(self):
        # Stable across line drift: rule + file + normalized message.
        return f"{self.rule}|{self.path}|{self.message}"

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Comment-aware line splitting
# --------------------------------------------------------------------------

def split_lines(text):
    """Yields (code, comment) per line with block comments and string
    literals stripped from the code part."""
    out = []
    in_block = False
    for raw in text.splitlines():
        code, comment = [], []
        i, n = 0, len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    comment.append(raw[i:])
                    i = n
                else:
                    comment.append(raw[i:end])
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            if ch == "/" and i + 1 < n and raw[i + 1] == "/":
                comment.append(raw[i + 2:])
                i = n
            elif ch == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                i += 2
            elif ch == '"' or ch == "'":
                quote = ch
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                code.append(quote + quote)  # keep token boundaries
            else:
                code.append(ch)
                i += 1
        out.append(("".join(code), "".join(comment)))
    return out


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def lex_epoch_guard_blocking(path, lines):
    """Tracks EpochGuard declarations by brace depth; any blocking pattern
    while a guard scope is live is a finding."""
    findings = []
    depth = 0
    guards = []  # (declared_depth, guard_name, line_no)
    for idx, (code, _comment) in enumerate(lines, start=1):
        m = EPOCH_GUARD_RE.search(code)
        for pat, what in BLOCKING_PATTERNS:
            # A guard declared on this very line guards only later lines.
            if guards and pat.search(code):
                g_depth, g_name, g_line = guards[-1]
                findings.append(Finding(
                    "epoch-guard-blocking", path, idx,
                    f"{what} inside EpochGuard '{g_name}' "
                    f"(declared line {g_line}); drop the guard first"))
        depth += code.count("{") - code.count("}")
        while guards and depth < guards[-1][0]:
            guards.pop()
        if m:
            # Scope of a local object: the enclosing block (current depth).
            guards.append((depth, m.group(1), idx))
    return findings


def lex_raw_std_sync(path, lines):
    if path in RAW_SYNC_EXEMPT:
        return []
    findings = []
    for idx, (code, _comment) in enumerate(lines, start=1):
        m = RAW_SYNC_RE.search(code)
        if m:
            findings.append(Finding(
                "raw-std-sync", path, idx,
                f"raw {m.group(0)} (invisible to thread-safety analysis); "
                f"use the annotated wrappers in common/thread_annotations.h"))
    return findings


def lex_unjustified_relaxed(path, lines):
    if path in RELAXED_ALLOWLIST:
        return []
    findings = []
    for idx, (code, comment) in enumerate(lines, start=1):
        if not RELAXED_RE.search(code):
            continue
        window = [comment] + [
            lines[j][1] for j in range(max(0, idx - 4), idx - 1)]
        if any(RELAXED_OK_RE.search(c) for c in window):
            continue
        findings.append(Finding(
            "unjustified-relaxed", path, idx,
            "memory_order_relaxed without a '// relaxed-ok: <reason>' "
            "comment (same line or up to 3 lines above) and not in the "
            "per-file allowlist"))
    return findings


def lex_include_layering(path, lines, raw_lines):
    parts = path.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] not in LAYER_DEPS:
        return []
    layer = parts[1]
    findings = []
    for idx, (code, _comment) in enumerate(lines, start=1):
        # The lexer blanks string literals, so take the path from the raw
        # line, but only where the code part really is a directive.
        if not code.lstrip().startswith("#"):
            continue
        m = INCLUDE_RE.match(raw_lines[idx - 1])
        if not m:
            continue
        target = m.group(1)
        if target == layer or target not in LAYER_DEPS:
            continue
        if target not in LAYER_DEPS[layer]:
            findings.append(Finding(
                "include-layering", path, idx,
                f"{layer} includes {target}/, which is not below it in "
                f"the src/CMakeLists.txt layer DAG"))
    return findings


# --------------------------------------------------------------------------
# .tsan-suppressions rule
# --------------------------------------------------------------------------

def check_tsan_suppressions(repo_root, src_texts):
    path = os.path.join(repo_root, ".tsan-suppressions")
    if not os.path.exists(path):
        return []
    findings = []
    prev_was_comment = False
    with open(path, encoding="utf-8") as f:
        for idx, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                prev_was_comment = False
                continue
            if line.startswith("#"):
                prev_was_comment = True
                continue
            m = re.match(r"^(\w+):(.+)$", line)
            if not m:
                findings.append(Finding(
                    "tsan-suppression", ".tsan-suppressions", idx,
                    f"unparseable suppression '{line}'"))
                prev_was_comment = False
                continue
            symbol = m.group(2)
            if not prev_was_comment:
                findings.append(Finding(
                    "tsan-suppression", ".tsan-suppressions", idx,
                    f"suppression '{line}' has no justification comment "
                    f"directly above it"))
            # The last :: component must exist as an identifier in src/.
            leaf = symbol.split("::")[-1].strip("*")
            leaf_re = re.compile(rf"\b{re.escape(leaf)}\b")
            if leaf and not any(leaf_re.search(t) for t in src_texts.values()):
                findings.append(Finding(
                    "tsan-suppression", ".tsan-suppressions", idx,
                    f"suppression '{line}' names symbol '{leaf}' which no "
                    f"longer exists in src/ — delete the dead suppression"))
            prev_was_comment = False
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_sources(repo_root):
    rels = []
    src_dir = os.path.join(repo_root, "src")
    scan_root = src_dir if os.path.isdir(src_dir) else repo_root
    for dirpath, _dirs, files in os.walk(scan_root):
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                full = os.path.join(dirpath, name)
                rels.append(os.path.relpath(full, repo_root))
    return sorted(rels)


def run(repo_root, baseline_path, update_baseline):
    rel_paths = collect_sources(repo_root)
    texts = {}
    for rel in rel_paths:
        with open(os.path.join(repo_root, rel), encoding="utf-8",
                  errors="replace") as f:
            texts[rel] = f.read()

    findings = []
    for rel in rel_paths:
        lines = split_lines(texts[rel])
        findings.extend(lex_epoch_guard_blocking(rel, lines))
        findings.extend(lex_raw_std_sync(rel, lines))
        findings.extend(lex_unjustified_relaxed(rel, lines))
        findings.extend(lex_include_layering(rel, lines,
                                             texts[rel].splitlines()))
    findings.extend(check_tsan_suppressions(repo_root, texts))

    if update_baseline:
        with open(baseline_path, "w", encoding="utf-8") as f:
            f.write("# Expected findings for scripts/check_invariants.py.\n")
            f.write("# One fingerprint per line; regenerate with "
                    "--update-baseline.\n")
            for fd in sorted(set(fp.fingerprint() for fp in findings)):
                f.write(fd + "\n")
        print(f"check_invariants: wrote {len(set(f.fingerprint() for f in findings))} "
              f"baseline entries to {baseline_path}")
        return 0

    baseline = set()
    if os.path.exists(baseline_path):
        with open(baseline_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    baseline.add(line)

    new = [f for f in findings if f.fingerprint() not in baseline]
    fired = set(f.fingerprint() for f in findings)
    stale = sorted(baseline - fired)

    print(f"check_invariants: files={len(rel_paths)} "
          f"findings={len(findings)} (baseline={len(baseline)}, "
          f"new={len(new)}, stale-baseline={len(stale)})")
    for f in new:
        print(f"NEW: {f}")
    for fp in stale:
        print(f"STALE BASELINE (fix landed? shrink the baseline): {fp}")
    if new:
        print("check_invariants: FAIL — new invariant violations above")
        return 1
    print("check_invariants: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default: "
                         "scripts/check_invariants_baseline.txt under root)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    args = ap.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    baseline = args.baseline or os.path.join(
        root, "scripts", "check_invariants_baseline.txt")
    sys.exit(run(root, baseline, args.update_baseline))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Meta-test for the static-analysis lanes (tests/static_analysis).

Two lanes are exercised against seeded violations, so that a lane that
silently stops finding bugs fails THIS test instead of rotting:

1. Thread-safety annotations (clang -Werror=thread-safety): each
   tsa_*.cc violation snippet must FAIL to compile with a thread-safety
   diagnostic, and tsa_clean_control.cc must compile cleanly (proving the
   failures come from the analysis, not broken flags). Skipped with a
   notice when no clang++ is on PATH (the build container ships GCC
   only); CI's static-analysis job always runs it.

2. scripts/check_invariants.py: each snippets/lint_*.cc violation is
   copied into a scratch tree (under src/, or under the layer directory
   the case names) and the named rule must flag it (exit 1);
   snippets/lint_clean.cc must produce zero findings. Orphan/uncommented
   .tsan-suppressions entries are seeded directly. This lane runs
   everywhere (pure python).

Exit codes: 0 pass, 1 fail, 77 skip (nothing could run — should not
happen since lane 2 has no external dependencies).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

PASS, FAIL = 0, 1
results = []


def record(name, ok, detail=""):
    results.append((name, ok, detail))
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] {name}"
    if detail and not ok:
        line += f"\n       {detail}"
    print(line)


# --------------------------------------------------------------------------
# Lane 1: clang thread-safety analysis on seeded violations
# --------------------------------------------------------------------------

def run_tsa_lane(repo_root, here):
    clangxx = os.environ.get("SKEENA_CLANGXX") or shutil.which("clang++")
    if clangxx is None:
        print("[SKIP] tsa lane: no clang++ on PATH "
              "(set SKEENA_CLANGXX to override)")
        return
    flags = ["-std=c++20", "-fsyntax-only", "-Wthread-safety",
             "-Werror=thread-safety", "-I", os.path.join(repo_root, "src")]

    def compile_snippet(name):
        path = os.path.join(here, name)
        proc = subprocess.run([clangxx] + flags + [path],
                              capture_output=True, text=True)
        return proc.returncode, proc.stderr

    rc, err = compile_snippet("tsa_clean_control.cc")
    record("tsa: clean control compiles", rc == 0, err[:800])
    if rc != 0:
        # Flags/include path are broken; the failure assertions below
        # would be vacuous, so don't run them.
        return

    for name in ("tsa_guarded_by_read.cc", "tsa_requires_unheld.cc"):
        rc, err = compile_snippet(name)
        ok = rc != 0 and "thread-safety" in err
        record(f"tsa: {name} rejected with a thread-safety error", ok,
               f"rc={rc} stderr={err[:800]}")


# --------------------------------------------------------------------------
# Lane 2: check_invariants.py rules on seeded violations
# --------------------------------------------------------------------------

def run_linter(repo_root, scratch):
    """Runs the invariant linter over a scratch tree with an empty
    baseline; returns (exit_code, stdout)."""
    script = os.path.join(repo_root, "scripts", "check_invariants.py")
    baseline = os.path.join(scratch, "baseline.txt")
    open(baseline, "w").close()
    proc = subprocess.run(
        [sys.executable, script, "--root", scratch, "--baseline", baseline],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def make_scratch(repo_root, snippet_dir, snippet, layer=""):
    """Scratch tree: src/common/thread_annotations.h (the real one, so the
    raw-std-sync exemption path exists) + the snippet under src/<layer>."""
    scratch = tempfile.mkdtemp(prefix="skeena_lint_")
    common = os.path.join(scratch, "src", "common")
    os.makedirs(common)
    shutil.copy(os.path.join(repo_root, "src", "common",
                             "thread_annotations.h"), common)
    if snippet is not None:
        dest = os.path.join(scratch, "src", layer)
        os.makedirs(dest, exist_ok=True)
        shutil.copy(os.path.join(snippet_dir, snippet),
                    os.path.join(dest, snippet))
    return scratch


def run_linter_lane(repo_root, here):
    snippet_dir = os.path.join(here, "snippets")
    # (snippet, rule, layer directory under src/, findings expected)
    cases = [
        ("lint_epoch_guard_park.cc", "epoch-guard-blocking", "", None),
        ("lint_raw_mutex.cc", "raw-std-sync", "", None),
        ("lint_unjustified_relaxed.cc", "unjustified-relaxed", "", None),
        ("lint_include_layering.cc", "include-layering", "memdb", 1),
    ]
    for snippet, rule, layer, expected in cases:
        scratch = make_scratch(repo_root, snippet_dir, snippet, layer)
        try:
            rc, out = run_linter(repo_root, scratch)
            ok = rc == 1 and f"[{rule}]" in out
            if expected is not None:
                ok = ok and out.count(f"[{rule}]") == expected
            record(f"lint: {snippet} flagged by {rule}", ok,
                   f"rc={rc} output={out[:800]}")
        finally:
            shutil.rmtree(scratch)

    # Orphan suppression: entry names a symbol absent from src/.
    scratch = make_scratch(repo_root, snippet_dir, None)
    try:
        with open(os.path.join(scratch, ".tsan-suppressions"), "w") as f:
            f.write("# Justified but dead: the symbol is gone.\n")
            f.write("race:skeena::GhostClass::GhostMethod\n")
        rc, out = run_linter(repo_root, scratch)
        ok = rc == 1 and "no longer exists in src/" in out
        record("lint: dead .tsan-suppressions entry flagged", ok,
               f"rc={rc} output={out[:800]}")
    finally:
        shutil.rmtree(scratch)

    # Uncommented suppression: symbol exists but carries no justification.
    scratch = make_scratch(repo_root, snippet_dir, "lint_clean.cc")
    try:
        with open(os.path.join(scratch, ".tsan-suppressions"), "w") as f:
            f.write("race:Gauge::Set\n")
        rc, out = run_linter(repo_root, scratch)
        ok = rc == 1 and "no justification comment" in out
        record("lint: uncommented .tsan-suppressions entry flagged", ok,
               f"rc={rc} output={out[:800]}")
    finally:
        shutil.rmtree(scratch)

    # Clean control: zero findings on a rule-abiding tree.
    scratch = make_scratch(repo_root, snippet_dir, "lint_clean.cc")
    try:
        rc, out = run_linter(repo_root, scratch)
        ok = rc == 0 and "findings=0" in out
        record("lint: clean control produces zero findings", ok,
               f"rc={rc} output={out[:800]}")
    finally:
        shutil.rmtree(scratch)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo-root", default=None)
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = args.repo_root or os.path.dirname(os.path.dirname(here))

    run_tsa_lane(repo_root, here)
    run_linter_lane(repo_root, here)

    failed = [r for r in results if not r[1]]
    print(f"\nstatic_analysis_test: {len(results) - len(failed)}/"
          f"{len(results)} checks passed")
    if failed:
        return FAIL
    if not results:
        return 77
    return PASS


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the repository root:

  python3 benchsuite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run of one workload. Prints the binary's metric and check lines,
      then, as the last line, one JSON object with the keys correct,
      attempted, failed and metrics. Untraced runs report the end_to_end
      metrics of BENCHMARK.json, traced runs the per_layer metrics.

  python3 benchsuite/run.py [--seed <n>] [--seconds <s>]
      Every workload, untraced then traced, each in a fresh process. Prints
      every metric as "<workload> <metric> <value> <unit>" and exits 1 if
      any validity check fails.

The build directory is $CARGO_TARGET_DIR (default .bench_build) under the
repository root; traced runs write trace_<workload>.json there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir, sut_root=ROOT):
    """Configures (on first use, or when sut_root changes) and builds
    skeena_bench against sut_root/src; build output goes to stderr."""
    steps = []
    root_line = "SKEENA_ROOT:PATH=" + os.path.abspath(sut_root)
    cache = os.path.join(bdir, "CMakeCache.txt")
    if (not os.path.exists(cache)
            or root_line not in open(cache).read().splitlines()):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-D" + root_line])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "skeena_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "skeena_bench")


def run_binary(binary, workload, seed, seconds, trace, bdir):
    """Runs one workload in a fresh process; returns its parsed output."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", bdir]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    metrics, checks, result = {}, [], None
    for line in p.stdout.splitlines():
        tok = line.split()
        if tok[:1] == ["result"] and len(tok) == 5:
            result = dict(kv.split("=", 1) for kv in tok[2:])
        elif tok[:1] == ["check"] and len(tok) >= 4:
            checks.append((tok[2], tok[3] == "ok", " ".join(tok[4:])))
        elif len(tok) == 4 and tok[0] == workload:
            metrics[tok[1]] = (float(tok[2]), tok[3])
    if result is None or p.returncode not in (0, 1):
        raise BenchError("%s exited with %d and no result" %
                         (workload, p.returncode))
    return p.stdout, metrics, checks, result


def result_json(spec, trace, metrics, checks, result):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError("metric %s was not reported" % m["name"])
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise BenchError("metric %s reported in %s, declared %s" %
                             (m["name"], unit, m["unit"]))
        out[m["name"]] = {"value": value, "unit": unit}
    attempted = int(result["attempted"])
    return {
        "correct": result["correct"] == "1" and all(ok for _, ok, _ in checks)
                   and attempted > 0,
        "attempted": attempted,
        "failed": int(result["failed"]),
        "metrics": out,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    args = ap.parse_args()

    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        bdir = build_dir()
        binary = build(bdir)
        if args.workload is not None:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                raise BenchError("unknown workload " + args.workload)
            out, metrics, checks, result = run_binary(
                binary, args.workload, args.seed, seconds, args.trace, bdir)
            sys.stdout.write(out)
            print(json.dumps(result_json(spec, args.trace, metrics, checks,
                                         result)))
            return 0

        all_ok = True
        for w in spec["workloads"]:
            for trace in (0, 1):
                out, metrics, checks, result = run_binary(
                    binary, w["name"], args.seed, seconds, trace, bdir)
                sys.stdout.write(out)
                sys.stdout.flush()
                all_ok = all_ok and result_json(
                    spec, trace, metrics, checks, result)["correct"]
        print("all validity checks passed" if all_ok
              else "VALIDITY CHECK FAILED")
        return 0 if all_ok else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

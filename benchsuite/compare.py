#!/usr/bin/env python3
"""Compares two checkouts on the benchmark, against the bounds in BENCHMARK.json.

  compare.py run --parent DIR --change DIR --out runs.jsonl
             [--pairs 10] [--workloads a,b] [--seconds N] [--seed0 N]
      Builds this directory's skeena_bench twice, once against each
      checkout's src/, so both sides run the same benchmark code. Then runs
      each workload untraced on both sides, pair by pair, alternating which
      side runs first; both sides of a pair use the same seed. Appends one
      JSON line per run.

  compare.py report runs.jsonl
      One row per workload, one cell per end-to-end metric:
        gain        the change wins >= 9/10 of the pairs (ties count for
                    neither) and the medians differ by more than the
                    parent's interquartile range;
        WORSE       the change's median is worse than the parent's by more
                    than the metric's bound;
        unresolved  either side's IQR/median exceeds the bound, unless every
                    change run beats every parent run;
        same        otherwise.
      A FAILED flag marks a workload whose change side failed a larger share
      of operations, or more runs, than the parent.

  compare.py spread runs.jsonl [--side parent]
      Median, quartiles and IQR/median of every end-to-end metric per
      workload for one side (baseline tables).
"""

import argparse
import json
import os
import statistics
import sys

import run as bench


def run_side(binary, bdir, spec, workload, seed, seconds):
    """One untraced run; None if it did not produce a result."""
    try:
        _, metrics, checks, result = bench.run_binary(
            binary, workload, seed, seconds, False, bdir)
        return bench.result_json(spec, False, metrics, checks, result)
    except bench.BenchError as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return None


def cmd_run(args, spec):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    builds = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        bdir = os.path.join(bench.build_dir(), "compare-" + side)
        builds[side] = (bench.build(bdir, checkout), bdir)
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.seed0 + pair
            sides = ["parent", "change"]
            if pair % 2:
                sides.reverse()
            for w in workloads:
                for side in sides:
                    binary, bdir = builds[side]
                    result = run_side(binary, bdir, spec, w, seed, seconds)
                    out.write(json.dumps({"side": side, "pair": pair,
                                          "workload": w, "seed": seed,
                                          "result": result}) + "\n")
                    out.flush()
                    print("pair %d %s %s %s" % (pair, w, side,
                          "ok" if result and result["correct"] else "FAILED"),
                          file=sys.stderr)


def load_runs(path):
    runs = {}  # (workload, side) -> {pair: result}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["side"]), {})[r["pair"]] = \
                    r["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def values_of(results, metric):
    return {pair: r["metrics"][metric]["value"]
            for pair, r in results.items() if r is not None}


def failure_share(results):
    attempted = sum(r["attempted"] for r in results.values() if r)
    failed = sum(r["failed"] for r in results.values() if r)
    bad_runs = sum(1 for r in results.values() if not r or not r["correct"])
    return (failed / attempted if attempted else 1.0), bad_runs


def verdict(m, parent, change):
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        return "no data"
    p = [parent[i] for i in pairs]
    c = [change[i] for i in pairs]
    sign = 1 if m["better"] == "higher" else -1
    mp, mc = statistics.median(p), statistics.median(c)
    rel = sign * (mc - mp) / mp if mp else 0.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    q1p, q3p = quartiles(p)
    q1c, q3c = quartiles(c)
    spread = max((q3p - q1p) / mp if mp else 0, (q3c - q1c) / mc if mc else 0)
    dominates = min(sign * x for x in c) > max(sign * x for x in p)
    if rel < -m["bound"]:
        word = "WORSE"
    elif wins >= 0.9 * len(pairs) and abs(mc - mp) > q3p - q1p and rel > 0:
        word = "gain"
    elif spread > m["bound"] and not dominates:
        word = "unresolved"
    else:
        word = "same"
    return "%s %+.1f%% (%d/%d)" % (word, 100 * rel, wins, len(pairs))


def cmd_report(args, spec):
    runs = load_runs(args.runs)
    workloads = sorted({w for w, _ in runs})
    metrics = spec["end_to_end"]
    header = ["workload"] + [m["name"] for m in metrics] + ["failures"]
    rows = []
    for w in workloads:
        parent, change = runs.get((w, "parent"), {}), runs.get((w, "change"), {})
        if len(set(parent) & set(change)) < 10:
            print("warning: %s has fewer than 10 pairs" % w, file=sys.stderr)
        row = [w]
        for m in metrics:
            row.append(verdict(m, values_of(parent, m["name"]),
                               values_of(change, m["name"])))
        pf, pbad = failure_share(parent)
        cf, cbad = failure_share(change)
        flag = "FAILED" if cf > pf or cbad > pbad else "ok"
        row.append("%s %.2g%%/%.2g%% runs %d/%d" %
                   (flag, 100 * pf, 100 * cf, pbad, cbad))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(cell.ljust(wd) for cell, wd in zip(r, widths)))


def cmd_spread(args, spec):
    runs = load_runs(args.runs)
    for (w, side), results in sorted(runs.items()):
        if side != args.side:
            continue
        print("%s (%s, %d runs)" % (w, side, len(results)))
        for m in spec["end_to_end"]:
            v = sorted(values_of(results, m["name"]).values())
            if not v:
                continue
            med = statistics.median(v)
            q1, q3 = quartiles(v)
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "iqr/median %6.2f%%  bound %g%%" %
                  (m["name"], med, q1, q3,
                   100 * (q3 - q1) / med if med else 0, 100 * m["bound"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int)
    r.add_argument("--seed0", type=int, default=1000)
    rep = sub.add_parser("report")
    rep.add_argument("runs")
    sp = sub.add_parser("spread")
    sp.add_argument("runs")
    sp.add_argument("--side", default="parent")
    args = ap.parse_args()
    spec = bench.load_spec()
    try:
        {"run": cmd_run, "report": cmd_report, "spread": cmd_spread}[args.cmd](
            args, spec)
    except bench.BenchError as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

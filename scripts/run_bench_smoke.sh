#!/usr/bin/env bash
# Smoke-runs one (or more) bench binaries at tiny scale and checks that each
# produced a valid BENCH_<name>.json trajectory point file.
#
# Usage: scripts/run_bench_smoke.sh [build_dir] [bench ...]
#   build_dir  CMake build tree (default: build)
#   bench      bench target names (default: abort_rate)
#
# Scale knobs are env-driven (see bench/common/workload.h); this script
# pins them down to smoke size unless the caller overrides.
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
BENCHES=("${@:-abort_rate}")

export SKEENA_BENCH_MS="${SKEENA_BENCH_MS:-50}"
export SKEENA_BENCH_CONNS="${SKEENA_BENCH_CONNS:-1,2}"

OUT_DIR="${SKEENA_BENCH_JSON_DIR:-$BUILD_DIR/bench_json}"
mkdir -p "$OUT_DIR"
export SKEENA_BENCH_JSON_DIR="$OUT_DIR"

fail=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "run_bench_smoke: missing binary $bin (build with -DSKEENA_BUILD_BENCH=ON)" >&2
    exit 2
  fi
  json="$OUT_DIR/BENCH_$bench.json"
  rm -f "$json"
  echo "=== smoke: $bench (${SKEENA_BENCH_MS} ms/cell, conns ${SKEENA_BENCH_CONNS}) ==="
  "$bin"
  if [[ ! -s "$json" ]]; then
    echo "run_bench_smoke: $bench did not write $json" >&2
    fail=1
    continue
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"], "empty bench name"
assert doc["points"], "no points recorded"
for p in doc["points"]:
    assert set(p) == {"matrix", "row", "col", "value"}, f"bad point {p}"
    assert isinstance(p["value"], (int, float)), f"bad value {p}"
if doc["bench"] == "ablation_commit":
    # The parking-lot wakeup accounting must be present for the commit
    # path: syscall-wakeups-per-commit and waiter-parks-per-commit
    # matrices, with sane (non-negative, finite) values.
    wake = [p for p in doc["points"] if "commit wakeups" in p["matrix"]]
    parks = [p for p in doc["points"] if "commit waits" in p["matrix"]]
    assert wake, "no wakeup-count points in BENCH_ablation_commit.json"
    assert parks, "no park-count points in BENCH_ablation_commit.json"
    expected_rows = {"pipelined commit"}
    for name, pts in (("wakeups", wake), ("parks", parks)):
        rows = {p["row"] for p in pts}
        assert rows == expected_rows, f"{name} rows {rows} != {expected_rows}"
        for p in pts:
            assert 0 <= p["value"] < 1e6, f"absurd {name} value {p}"
    print(f"  OK wakeup fields: {len(wake)} wakeup + {len(parks)} park points")
    # Raw-speed log path: the flush-backend matrices must cover every
    # metric for the segmented row, and the contended-append matrix must
    # show the reservation ring not collapsing under threads.
    backend = [p for p in doc["points"] if "log flush backend" in p["matrix"]]
    assert backend, "no flush-backend points in BENCH_ablation_commit.json"
    backend_rows = {p["row"] for p in backend}
    assert backend_rows == {"segmented"}, \
        f"flush-backend rows {backend_rows} != {{'segmented'}}"
    backend_metrics = {p["matrix"] for p in backend}
    assert len(backend_metrics) == 4, \
        f"expected commits/s, p99, wakeups and flushes matrices: {backend_metrics}"
    for p in backend:
        assert 0 <= p["value"] < 1e9, f"absurd flush-backend value {p}"
    tput = [p for p in backend if "commits/s" in p["matrix"]]
    assert tput and all(p["value"] > 0 for p in tput), \
        "flush-backend throughput cells must be positive"
    append = [p for p in doc["points"] if "contended log append" in p["matrix"]]
    append_rows = {p["row"] for p in append}
    assert {"1", "2", "4", "8"} <= append_rows, \
        f"missing contended-append thread rows: {append_rows}"
    assert all(p["value"] > 0 for p in append), \
        "contended-append cells must record appends"
    one = max(p["value"] for p in append if p["row"] == "1")
    many = max(p["value"] for p in append if p["row"] in ("4", "8"))
    assert many >= 0.5 * one, \
        f"append throughput collapsed under contention: 1t={one} multi={many}"
    print(f"  OK log-backend fields: {len(backend)} backend + "
          f"{len(append)} append points")
if doc["bench"] == "abort_rate":
    # Paper Section 6.9: Skeena adds ~0.3 % aborts to TPC-C. The
    # recommended placements must stay near that budget, not the ~12-19 %
    # that positioning New-Order at its begin snapshot once cost.
    skeena = {p["row"]: p["value"] for p in doc["points"]
              if "TPC-C abort rates" in p["matrix"]
              and p["col"] == "skeena abort %"}
    for row in ("New-Order-Opt", "Payment-Opt"):
        assert row in skeena, f"no skeena abort % for {row}: {skeena}"
        assert skeena[row] <= 2.0, \
            f"{row} Skeena-attributed aborts {skeena[row]:.2f} % > 2.0 %"
    split = [p for p in doc["points"] if "failed bound" in p["matrix"]]
    assert {p["col"] for p in split} == {"high", "low", "reader tie",
                                         "sealed"}, \
        f"abort split columns missing: {sorted({p['col'] for p in split})}"
    print("  OK Skeena aborts: " +
          ", ".join(f"{r} {skeena[r]:.2f} %" for r in ("New-Order-Opt",
                                                       "Payment-Opt")))
if doc["bench"] == "eviction_pressure":
    # The buffer-pool frame-lifecycle cost matrix: every coverage row must
    # be present in the throughput matrix, hit ratios must be sane
    # percentages, and the miss-heavy ("10%") cells must record real
    # eviction traffic (hit ratio well below 100).
    tput = [p for p in doc["points"] if "fetches/s" in p["matrix"]]
    ratios = [p for p in doc["points"] if "hit ratio" in p["matrix"]]
    assert tput, "no throughput points in BENCH_eviction_pressure.json"
    expected_rows = {"fits", "50%", "10%"}
    rows = {p["row"] for p in tput}
    assert rows == expected_rows, f"coverage rows {rows} != {expected_rows}"
    for p in tput:
        assert 0 < p["value"] < 1e9, f"absurd fetches/s value {p}"
    for p in ratios:
        assert 0 <= p["value"] <= 100, f"bad hit-ratio value {p}"
    miss_heavy = [p["value"] for p in ratios if p["row"] == "10%"]
    assert miss_heavy and all(v < 99 for v in miss_heavy), \
        f"10% coverage cells did not generate misses: {miss_heavy}"
    print(f"  OK eviction-pressure matrix: {len(tput)} cells")
if doc["bench"] == "recording_overhead":
    # The verification-hook cost matrix: every workload row must carry an
    # off and an on TPS cell, and the recording cells must have actually
    # recorded transactions (a zero count means the hook silently no-oped
    # and the overhead numbers are meaningless).
    tps = [p for p in doc["points"] if p["col"] in ("off", "on")]
    counts = [p for p in doc["points"] if p["col"] == "txns recorded"]
    expected_rows = {"mem-only 80/20", "50% cross 80/20", "50% cross 20/80",
                     "stor-heavy 80/20"}
    rows = {p["row"] for p in tps}
    assert rows == expected_rows, f"overhead rows {rows} != {expected_rows}"
    for row in expected_rows:
        cols = {p["col"] for p in tps if p["row"] == row}
        assert cols == {"off", "on"}, f"row {row} missing cells: {cols}"
    for p in tps:
        assert 0 < p["value"] < 1e9, f"absurd TPS value {p}"
    assert counts and all(p["value"] > 0 for p in counts), \
        f"recording cells recorded no transactions: {counts}"
    print(f"  OK recording-overhead matrix: {len(tps)} TPS cells")
if doc["bench"] == "repl_lag":
    # The replication-lag bench: every (write-rate x reader-count) cell
    # must carry lag p50/p99, replica read throughput and achieved primary
    # write rate, with ordered percentiles and real traffic on both sides.
    by_metric = {}
    for p in doc["points"]:
        by_metric.setdefault(p["matrix"], []).append(p)
    metrics = sorted(by_metric)
    p50 = [m for m in metrics if "p50" in m]
    p99 = [m for m in metrics if "p99" in m]
    rtp = [m for m in metrics if "read throughput" in m]
    wtp = [m for m in metrics if "write rate" in m]
    assert p50 and p99 and rtp and wtp, f"missing matrices: {metrics}"
    cells = {(p["row"], p["col"]) for p in by_metric[p50[0]]}
    assert cells, "no lag cells recorded"
    for m in (p99[0], rtp[0], wtp[0]):
        assert {(p["row"], p["col"]) for p in by_metric[m]} == cells, \
            f"matrix {m} cell set differs from p50's"
    def rval(metric, cell):
        return next(p["value"] for p in by_metric[metric]
                    if (p["row"], p["col"]) == cell)
    for cell in cells:
        lo, hi = rval(p50[0], cell), rval(p99[0], cell)
        assert 0 < lo <= hi < 60_000, f"disordered lag percentiles {cell}"
        assert rval(rtp[0], cell) > 0, f"no replica reads at {cell}"
        assert rval(wtp[0], cell) > 0, f"no primary commits at {cell}"
    print(f"  OK repl-lag matrix: {len(cells)} cells x 4 metrics")
if doc["bench"] == "ablation_csr":
    # The lock-free read-path matrix feeds the reclamation perf trajectory
    # (docs/RECLAMATION.md); its hit-ratio rows must all be present with
    # sane Mops/s values.
    mops = [p for p in doc["points"] if "SelectSnapshot" in p["matrix"]]
    assert mops, "no read-path points in BENCH_ablation_csr.json"
    rows = {p["row"] for p in mops}
    expected_rows = {"100% hit", "90% hit", "50% hit"}
    assert rows == expected_rows, f"read-path rows {rows} != {expected_rows}"
    for p in mops:
        assert 0 < p["value"] < 1e4, f"absurd Mops/s value {p}"
    print(f"  OK read-path matrix: {len(mops)} points")
print(f"  OK {sys.argv[1]}: {len(doc['points'])} points")
EOF
  else
    echo "  wrote $json (python3 unavailable; skipped schema check)"
  fi
done
exit $fail

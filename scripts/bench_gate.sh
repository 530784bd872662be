#!/usr/bin/env bash
# Continuous perf gate: run the bench_engine microbenchmark suite and diff
# it against the checked-in BENCH_engine.json baseline. Shared verbatim by
# CI (.github/workflows/ci.yml) and local runs, mirroring scripts/check.sh.
#
# To absorb machine-speed differences between the machine that recorded the
# baseline and the one running the gate, every rate is normalized by the
# suite's calib_spin rate (a fixed ALU workload) before comparison; the
# gate therefore checks the *shape* of the performance profile, not the
# silicon. A normalized rate more than TOLERANCE below baseline fails.
#
# Entries may carry "direction": "lower" (smaller value is better, e.g.
# events_per_message), "raw": true (a property of the simulated schedule,
# compared without calib_spin normalization), and "tolerance": F (per-entry
# override of the global tolerance — the span_capture_overhead_* ratios pin
# their baseline at 1.0 and gate at tight absolute bounds this way). In
# every case the printed ratio is oriented so >1 means improved and
# <1-TOLERANCE fails.
#
# An entry may also carry "min": V, a hard lower bound on the value itself
# (not relative to the baseline) — parallel_speedup_4shard uses it to
# demand a >= 2x sharded-engine speedup on any machine with enough cores.
# "min_cores": N waives the bound on machines with fewer than N hardware
# threads, where the measurement cannot physically exist.
#
# Usage: scripts/bench_gate.sh [--update] [--current PATH] [--quick]
#   --update        refresh BENCH_engine.json from this machine and exit
#   --current PATH  where to write the fresh results (default /tmp)
#   --quick         single fast repetition (smoke only, noisier)
# Env: BENCH_GATE_TOLERANCE  allowed fractional slowdown (default 0.15)
#      JOBS                  build parallelism (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
TOL="${BENCH_GATE_TOLERANCE:-0.15}"
BASELINE=BENCH_engine.json
CURRENT="${TMPDIR:-/tmp}/BENCH_engine.current.json"
BENCH_FLAGS=()

UPDATE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --update) UPDATE=1 ;;
    --current) CURRENT="$2"; shift ;;
    --quick) BENCH_FLAGS+=(--quick) ;;
    *) echo "usage: $0 [--update] [--current PATH] [--quick]" >&2; exit 2 ;;
  esac
  shift
done

if [ ! -x build/bench/bench_engine ]; then
  echo "== building bench_engine =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_engine
fi

echo "== running engine benchmark suite =="
./build/bench/bench_engine --json "$CURRENT" ${BENCH_FLAGS[@]+"${BENCH_FLAGS[@]}"}

if [ "$UPDATE" = 1 ]; then
  cp "$CURRENT" "$BASELINE"
  echo "baseline $BASELINE updated"
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "error: no baseline $BASELINE; record one with $0 --update" >&2
  exit 1
fi

echo "== comparing against $BASELINE (tolerance ${TOL}) =="
python3 - "$BASELINE" "$CURRENT" "$TOL" <<'PY'
import json, os, sys

baseline_path, current_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
base = json.load(open(baseline_path))
cur = json.load(open(current_path))

def entries(doc):
    return {b["name"]: b for b in doc["benchmarks"]}

base_e, cur_e = entries(base), entries(cur)
base_spin = float(base_e.get("calib_spin", {}).get("rate", 0.0))
cur_spin = float(cur_e.get("calib_spin", {}).get("rate", 0.0))
normalize = base_spin > 0 and cur_spin > 0
if not normalize:
    print("warning: calib_spin missing; comparing raw rates")

rows, failed = [], []
for name, be in base_e.items():
    if name == "calib_spin":
        continue
    ce = cur_e.get(name)
    b = float(be["rate"])
    if ce is None:
        rows.append((name, b, None, None, "MISSING"))
        failed.append(name)
        continue
    c = float(ce["rate"])
    raw = bool(be.get("raw") or ce.get("raw"))
    lower = be.get("direction", "higher") == "lower"
    tol_e = float(be.get("tolerance", tol))
    # Orient the ratio so >1 always means "improved".
    if lower:
        ratio = b / c if c > 0 else float("inf")
    elif normalize and not raw:
        ratio = (c / cur_spin) / (b / base_spin)
    else:
        ratio = c / b
    if ratio < 1.0 - tol_e:
        status = "REGRESSION"
        failed.append(name)
    elif ratio > 1.0 + tol_e:
        status = "ok (faster; consider --update)"
    else:
        status = "ok"
    # Hard lower bound on the value itself, independent of the baseline.
    min_v = be.get("min", ce.get("min"))
    if min_v is not None:
        need = int(be.get("min_cores", ce.get("min_cores", 0)))
        cores = os.cpu_count() or 1
        if cores < need:
            status += f" (min {float(min_v):g} waived: {cores} < {need} cores)"
        elif c < float(min_v):
            status = f"BELOW MIN {float(min_v):g}"
            if name not in failed:
                failed.append(name)
    rows.append((name, b, c, ratio, status))

def fmt(v):
    if v is None:
        return f"{'-':>14}"
    return f"{v:14.2f}" if v < 1000 else f"{v:14.0f}"

print(f"{'benchmark':<26} {'baseline':>14} {'current':>14} {'norm-ratio':>10}  status")
for name, b, c, ratio, status in rows:
    rs = f"{ratio:10.3f}" if ratio is not None else f"{'-':>10}"
    print(f"{name:<26} {fmt(b)} {fmt(c)} {rs}  {status}")

if failed:
    print(f"\nPERF GATE FAILED: {', '.join(failed)} "
          f"regressed more than {tol:.0%} vs {baseline_path}")
    sys.exit(1)
print("\nperf gate passed")
PY

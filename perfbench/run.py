#!/usr/bin/env python3
"""End-to-end benchmark of the virtual-network simulator.

Builds perfbench/vnetbench from the repository's sources, runs one workload
in several fresh processes for about --seconds seconds of host time, checks
every process's outputs and their determinism, and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (traced and untraced processes alternate, so the tracing
overhead is measured in the same run). See perfbench/README.md.

    python3 perfbench/run.py --workload remap16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke      # every check, a few seconds each
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alltoall32", "remap16", "small_stream2")

# End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_msgs_per_s": "msgs/s",
    "sim_rtt_p50_us": "us",
    "sim_rtt_p99_us": "us",
}

# Per-layer metrics (--trace 1) and their units. Host-time metrics are
# medians over the untraced processes; span and Endpoint-call timings come
# from the traced ones; every other metric is an exact count or simulated
# quantity and must agree across all processes.
PER_LAYER = {
    "cluster.build_s": "s",
    "cluster.bringup_s": "s",
    "sim.events_per_msg": "count",
    "sim.host_ns_per_event": "ns",
    "sim.allocs_per_msg": "count",
    "sim.arena_fallbacks_per_msg": "count",
    "fabric.link_pkts_per_msg": "count",
    "fabric.max_link_util": "fraction",
    "fabric.switch_queue_watermark_max": "count",
    "fabric.drops": "count",
    "nic.wakeups_per_msg": "count",
    "nic.data_pkts_per_msg": "count",
    "nic.retx_frac": "fraction",
    "nic.dup_frac": "fraction",
    "nic.nack_notres_per_msg": "count",
    "nic.nack_qfull_per_msg": "count",
    "nic.frames_loaded": "count",
    "driver.remaps_per_sim_s": "1/s",
    "driver.write_faults": "count",
    "driver.proxy_faults": "count",
    "driver.evictions": "count",
    "am.send_stalls_per_msg": "count",
    "am.wait_wakeups_per_msg": "count",
    "am.returned": "count",
    "am.rtt_samples": "count",
    "am.request_sim_us.p50": "us",
    "am.request_sim_us.p99": "us",
    "am.poll_sim_us.p50": "us",
}
SPAN_STAGES = ("host_enqueue", "doorbell_gate", "tx_queue", "tx_service",
               "wire", "rx_service", "wake", "handler")
for _stage in SPAN_STAGES:
    PER_LAYER[f"span.{_stage}.p50_us"] = "us"
    PER_LAYER[f"span.{_stage}.p99_us"] = "us"
PER_LAYER["trace.overhead"] = "ratio"

# Host measurements: noisy, never part of the determinism fingerprint.
HOST_KEYS = {"host_s", "setup_s", "peak_rss_mb", "cluster.build_s",
             "cluster.bringup_s", "sim.host_ns_per_event", "ref_s"}
# Host times, reported at reference speed: each process's value is scaled by
# REF_NOMINAL_S / ref_s, where ref_s is the time the same process took for a
# fixed reference kernel right before its measured phase. The host's
# speed drifts by 10-30% over tens of seconds; the kernel drifts with it,
# so the scaled value is what the time would be on a host where the kernel
# takes REF_NOMINAL_S. See README.md.
SCALED_KEYS = {"host_s", "setup_s", "cluster.build_s", "cluster.bringup_s",
               "sim.host_ns_per_event"}
REF_NOMINAL_S = 0.2
# Per-layer metrics measured only by traced processes.
TRACED_METRICS = {"am.request_sim_us.p50", "am.request_sim_us.p99",
                  "am.poll_sim_us.p50"} | {
                      k for k in PER_LAYER if k.startswith("span.")}
# Record keys a traced process may not share with an untraced one: the
# above, and allocation counts, which tracing's own allocations change.
TRACE_ONLY_KEYS = TRACED_METRICS | {"span.traces", "ledger.injected",
                                    "allocs", "sim.allocs_per_msg"}

MIN_PROCESSES = 5
# A run must finish well inside three minutes even if a process hangs.
RUN_DEADLINE_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds vnetbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.hpp")):
        raise RuntimeError(f"simulator sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "vnetbench")


def run_process(binary, workload, seed, trace, scale, cpu, timeout):
    """Runs one vnetbench process pinned to `cpu`; returns its record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--scale", repr(scale)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout,
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return {"errors": [f"timed out after {timeout:.0f} s"],
                "attempted": 0, "failed": 0, "trace": trace}
    lines = p.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"errors": [f"no result (exit {p.returncode}): "
                          f"{p.stderr.strip()[-300:]}"], "attempted": 0,
               "failed": 0}
    if p.returncode != 0 and not rec.get("errors"):
        rec.setdefault("errors", []).append(f"exit code {p.returncode}")
    rec["trace"] = trace
    return rec


def fingerprint(rec, drop):
    """Every exact value of a record: what must repeat bit for bit."""
    return {k: v for k, v in rec.items()
            if k not in HOST_KEYS and k not in drop
            and k not in ("errors", "trace")}


def measure(binary, workload, seed, seconds, trace, scale=1.0,
            min_processes=MIN_PROCESSES):
    """Runs processes until `seconds` have passed (and at least
    `min_processes` ran); with `trace`, untraced and traced alternate.
    Successive processes are pinned to successive CPUs, so a run's median
    samples every vCPU rather than whichever one the scheduler favoured."""
    cpus = sorted(os.sched_getaffinity(0))
    recs = []
    start = time.monotonic()
    i = 0
    while i < min_processes or time.monotonic() - start < seconds:
        left = RUN_DEADLINE_S - (time.monotonic() - start)
        if left <= 0:
            recs.append({"errors": ["run deadline passed"], "attempted": 0,
                         "failed": 0, "trace": False})
            break
        traced = trace and i % 2 == 1
        recs.append(run_process(binary, workload, seed, traced, scale,
                                cpus[i % len(cpus)], left))
        i += 1
    return recs


def check(recs):
    """Returns (errors, attempted, failed) over a run's processes."""
    errors = []
    attempted = failed = 0
    for n, rec in enumerate(recs):
        attempted += int(rec.get("attempted", 0))
        failed += int(rec.get("failed", 0))
        for e in rec.get("errors", []):
            errors.append(f"process {n}: {e}")
        if rec.get("errors") and int(rec.get("failed", 0)) == 0:
            failed += max(1, int(rec.get("attempted", 0)))
    # Determinism guard: same code and seed must give the same simulation,
    # traced or not (tracing only observes).
    base = {"untraced": None, "traced": None}
    for n, rec in enumerate(recs):
        if rec.get("errors"):
            continue
        kind = "traced" if rec["trace"] else "untraced"
        fp = fingerprint(rec, set())
        if base[kind] is None:
            base[kind] = (n, fp)
        elif fp != base[kind][1]:
            diff = sorted(k for k in set(fp) | set(base[kind][1])
                          if fp.get(k) != base[kind][1].get(k))
            errors.append(f"process {n} differs from process {base[kind][0]}"
                          f" (same seed): {', '.join(diff[:8])}")
            failed += max(1, int(rec.get("attempted", 0)))
    if base["untraced"] and base["traced"]:
        shared = fingerprint(recs[base["untraced"][0]], TRACE_ONLY_KEYS)
        traced = fingerprint(recs[base["traced"][0]], TRACE_ONLY_KEYS)
        if shared != traced:
            diff = sorted(k for k in set(shared) | set(traced)
                          if shared.get(k) != traced.get(k))
            errors.append(f"tracing changed the simulation: {', '.join(diff[:8])}")
            failed += 1
    return errors, attempted, failed


def host_value(rec, key):
    """A record's host measurement, scaled to reference speed if it is a
    time."""
    v = float(rec[key])
    if key in SCALED_KEYS:
        v *= REF_NOMINAL_S / float(rec["ref_s"])
    return v


def median_of(recs, key):
    return statistics.median(host_value(r, key) for r in recs)


def aggregate(recs, trace):
    """Reduces a run's processes to the reported metrics."""
    plain = [r for r in recs if not r["trace"] and not r.get("errors")]
    traced = [r for r in recs if r["trace"] and not r.get("errors")]
    if not plain or (trace and not traced):
        return {}
    exact = plain[0]
    out = {}
    if not trace:
        for key, unit in END_TO_END.items():
            v = median_of(plain, key) if key in HOST_KEYS else exact[key]
            out[key] = {"value": v, "unit": unit}
        return out
    for key, unit in PER_LAYER.items():
        if key == "trace.overhead":
            v = median_of(traced, "host_s") / median_of(plain, "host_s")
        elif key in HOST_KEYS:
            v = median_of(plain, key)
        elif key in TRACED_METRICS:
            v = traced[0][key]
        else:
            v = exact[key]
        out[key] = {"value": v, "unit": unit}
    return out


def report(workload, seed, recs, metrics):
    plain = [r for r in recs if not r["trace"] and not r.get("errors")]
    traced = [r for r in recs if r["trace"] and not r.get("errors")]
    print(f"workload {workload}  seed {seed}  processes {len(plain)} untraced"
          f" + {len(traced)} traced")
    if plain:
        r = plain[0]
        print(f"  replay digest {r['digest']}  events {r['events_total']}"
              f"  simulated measured phase {r['sim_s']:.6f} s"
              f"  rtt samples {r['am.rtt_samples']}")
        for key in ("host_s", "ref_s"):
            vs = sorted(float(x[key]) for x in plain)
            print(f"  unscaled {key} per process (median "
                  f"{statistics.median(vs):.4f}): "
                  f"{' '.join(f'{v:.3f}' for v in vs)}")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")


def run_one(args, binary):
    recs = measure(binary, args.workload, args.seed, args.seconds,
                   bool(args.trace))
    errors, attempted, failed = check(recs)
    metrics = aggregate(recs, bool(args.trace))
    report(args.workload, args.seed, recs, metrics)
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    correct = not errors and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def smoke(binary):
    """Short runs of every workload exercising every check: output checks,
    the delivery ledger, the determinism guard (traced vs untraced and two
    untraced processes), and that a second seed changes the exact metrics
    while keeping each workload's regime."""
    problems = []
    regime = {
        "alltoall32": lambda r: r["nic.retx_frac"] > 0.2
        and r["driver.remaps_per_sim_s"] == 0,
        "remap16": lambda r: r["driver.remaps_per_sim_s"] > 50
        and r["nic.nack_notres_per_msg"] > 0,
        "small_stream2": lambda r: r["nic.retx_frac"] == 0
        and r["driver.remaps_per_sim_s"] == 0,
    }
    for w in WORKLOADS:
        digests = []
        for seed in (1, 2):
            recs = measure(binary, w, seed, 0, trace=True, scale=0.1,
                           min_processes=3 if seed == 1 else 1)
            errors, attempted, failed = check(recs)
            problems += [f"{w} seed {seed}: {e}" for e in errors]
            ok = [r for r in recs if not r.get("errors")]
            if not ok:
                continue
            digests.append(ok[0]["digest"])
            r = ok[0]
            if not regime[w](r):
                problems.append(f"{w} seed {seed}: regime changed")
            print(f"{w:14s} seed {seed}: {len(recs)} processes, attempted "
                  f"{attempted}, failed {failed}, digest {r['digest']}, "
                  f"retx_frac {r['nic.retx_frac']:.3f}, remaps/s "
                  f"{r['driver.remaps_per_sim_s']:.1f}, "
                  f"msgs/s {r['sim_msgs_per_s']:.1f}")
        if len(digests) == 2 and digests[0] == digests[1]:
            problems.append(f"{w}: seeds 1 and 2 gave the same simulation")
    # The determinism guard itself: a record whose exact values differ from
    # its twin's (same seed) must be reported and counted as failed.
    if ok:
        twin = dict(ok[0], digest="0" * 16)
        errors, _, failed = check([ok[0], twin])
        if not errors or failed == 0:
            problems.append("determinism guard missed a changed digest")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.smoke:
        return smoke(binary)
    return run_one(args, binary)


if __name__ == "__main__":
    sys.exit(main())

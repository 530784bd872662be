#!/usr/bin/env python3
"""Regenerate bandwidth-vs-size curves from a sampler time-series CSV.

Input is the CSV written by `bench_fig4_bandwidth --csv PATH` (or any
obs::Sampler export that includes the `apps.bandwidth.*` gauges): one row
per sampling window, counters as in-window deltas, gauges as end-of-window
levels.  The workload annotates each window with two gauges —
`apps.bandwidth.msg_bytes` (current message size) and
`apps.bandwidth.phase` (0 idle, 1 streaming, 2 echo/RTT) — so the
Figure 4 curve can be rebuilt offline by grouping the per-window
`fabric.link.<label>.bytes_tx` deltas by message size over the streaming
phase.  No simulator changes needed to re-cut the data another way.

Link bytes include packet headers and acks, so the per-link rate sits
slightly above the application goodput printed by the bench; the shape of
the curve (and N_1/2) is what this reconstruction is for.

A second mode, --bands, renders per-window percentile bands from any
histogram the sampler exported (every histogram contributes `<name>.count`,
`.mean`, `.p50`, `.p99` and `.p999` columns, computed from the HDR-style
sub-bucketed sketch — ≤5% relative error through p99.9).  Run with a bare
`--bands` to list the histogram prefixes present in the CSV, then name one:

Usage:
    bench_fig4_bandwidth --csv /tmp/bw.csv
    scripts/plot_timeseries.py /tmp/bw.csv [--phase 1] [--plot out.png]
    scripts/plot_timeseries.py /tmp/bw.csv --bands                  # list
    scripts/plot_timeseries.py /tmp/bw.csv \
        --bands host.0.ep.1.span.e2e --plot bands.png

Pure standard library; --plot uses matplotlib only if it is installed.
"""

import argparse
import csv
import re
import sys

PHASE_COL = "apps.bandwidth.phase"
SIZE_COL = "apps.bandwidth.msg_bytes"
LINK_RE = re.compile(r"^fabric\.link\..*\.bytes_tx$")


def load(path, phase):
    """Returns {msg_bytes: (sum_window_ns, {link: sum_bytes})}."""
    per_size = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or PHASE_COL not in reader.fieldnames:
            sys.exit(f"{path}: no {PHASE_COL} column — was the CSV written "
                     "by bench_fig4_bandwidth --csv?")
        link_cols = [c for c in reader.fieldnames if LINK_RE.match(c)]
        if not link_cols:
            sys.exit(f"{path}: no fabric.link.*.bytes_tx columns")
        for row in reader:
            if int(float(row[PHASE_COL])) != phase:
                continue
            size = int(float(row[SIZE_COL]))
            if size == 0:
                continue
            ns, links = per_size.setdefault(size, [0, {}])
            per_size[size][0] += int(row["window_ns"])
            for c in link_cols:
                links[c] = links.get(c, 0) + int(float(row[c]))
    return per_size


def bands(path, prefix, plot):
    """Per-window percentile bands for one exported histogram."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        fields = reader.fieldnames or []
        prefixes = sorted(c[:-len(".p50")] for c in fields
                          if c.endswith(".p50"))
        if not prefix:
            if not prefixes:
                sys.exit(f"{path}: no histogram (*.p50) columns")
            print("histogram prefixes in this CSV:")
            for p in prefixes:
                print(f"  {p}")
            return
        if f"{prefix}.p50" not in fields:
            sys.exit(f"{path}: no columns for {prefix!r} "
                     f"(try a bare --bands to list prefixes)")
        rows = []
        for row in reader:
            count = int(float(row[f"{prefix}.count"]))
            if count == 0:
                continue  # empty window: quantiles would read as 0
            rows.append((int(row["window_end_ns"]), count,
                         float(row[f"{prefix}.mean"]),
                         float(row[f"{prefix}.p50"]),
                         float(row[f"{prefix}.p99"]),
                         float(row[f"{prefix}.p999"])))
    if not rows:
        sys.exit(f"no windows with samples for {prefix}")

    print(f"{'window_end_ms':>13} {'count':>7} {'mean':>12} {'p50':>12} "
          f"{'p99':>12} {'p99.9':>12}")
    for end_ns, count, mean, p50, p99, p999 in rows:
        print(f"{end_ns / 1e6:>13.3f} {count:>7} {mean:>12.1f} {p50:>12.1f} "
              f"{p99:>12.1f} {p999:>12.1f}")

    if plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            sys.exit("--plot requires matplotlib, which is not installed")
        xs = [r[0] / 1e6 for r in rows]
        p50s, p99s, p999s = ([r[i] for r in rows] for i in (3, 4, 5))
        plt.fill_between(xs, p50s, p99s, alpha=0.3, label="p50–p99")
        plt.fill_between(xs, p99s, p999s, alpha=0.15, label="p99–p99.9")
        plt.plot(xs, p50s, label="p50")
        plt.plot(xs, p999s, lw=0.8, label="p99.9")
        plt.xlabel("window end (ms)")
        plt.ylabel(prefix)
        plt.title(f"percentile bands: {prefix}")
        plt.legend()
        plt.grid(True, alpha=0.3)
        plt.savefig(plot, dpi=120, bbox_inches="tight")
        print(f"wrote {plot}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("csv", help="sampler CSV from bench_fig4_bandwidth --csv")
    ap.add_argument("--phase", type=int, default=1,
                    help="workload phase to aggregate (default 1: streaming)")
    ap.add_argument("--plot", metavar="PNG",
                    help="also write a PNG (needs matplotlib)")
    ap.add_argument("--bands", metavar="PREFIX", nargs="?", const="",
                    default=None,
                    help="plot percentile bands for one histogram prefix "
                         "(bare --bands lists the prefixes in the CSV)")
    args = ap.parse_args()

    if args.bands is not None:
        bands(args.csv, args.bands, args.plot)
        return

    per_size = load(args.csv, args.phase)
    if not per_size:
        sys.exit("no windows matched the requested phase")

    # Per size: the busiest link carries the payload stream one hop, so its
    # rate is the per-hop wire bandwidth at that message size.
    print(f"{'bytes':>8} {'windows_ms':>11} {'peak_link':>22} {'MB/s':>8}")
    sizes, rates = [], []
    for size in sorted(per_size):
        ns, links = per_size[size]
        link, byts = max(links.items(), key=lambda kv: kv[1])
        mbps = byts / (ns * 1e-9) / 1e6 if ns else 0.0
        label = link[len("fabric.link."):-len(".bytes_tx")]
        print(f"{size:>8} {ns / 1e6:>11.2f} {label:>22} {mbps:>8.1f}")
        sizes.append(size)
        rates.append(mbps)

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            sys.exit("--plot requires matplotlib, which is not installed")
        plt.semilogx(sizes, rates, marker="o", base=2)
        plt.xlabel("message size (bytes)")
        plt.ylabel("peak link bandwidth (MB/s)")
        plt.title("Figure 4 reconstruction from sampler time series")
        plt.grid(True, which="both", alpha=0.3)
        plt.savefig(args.plot, dpi=120, bbox_inches="tight")
        print(f"wrote {args.plot}")


if __name__ == "__main__":
    main()

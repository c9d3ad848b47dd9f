#!/usr/bin/env python3
"""Summarize the span file of one traced benchmark run (stdlib only).

    python3 perfbench/trace_summary.py <spans.jsonl> [...]

The traced pass (perfbench/run.py --trace 1) writes JSON lines: one "meta"
header, one "span" line per stored span (name, start, end, parent), one
"total" line per span name (count, total and self nanoseconds, exact even
when the span store overflowed), a "dropped" line, and, on the simulated
workloads, one "estimate" line per layer (calls x replayed ns per call).

For each file this prints, per layer: self time, call count and share of the
measured wall time (the spans named "workload"); the layer replays; the
estimated layer shares of run_wall_s; and the tracing overhead.
"""
import json
import sys
from collections import defaultdict


def layer_of(name):
    """Span names start with their layer: harness.run_protocol.domino -> harness."""
    return name.split(".")[0]


def load(path):
    meta, spans, totals, estimates, dropped = {}, [], [], [], 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("kind")
            if kind == "meta":
                meta = rec
            elif kind == "span":
                spans.append(rec)
            elif kind == "total":
                totals.append(rec)
            elif kind == "estimate":
                estimates.append(rec)
            elif kind == "dropped":
                dropped = rec.get("spans", 0)
    return meta, spans, totals, estimates, dropped


def check_self_times(spans, totals):
    """Recompute self time from the stored spans; equal to the totals when
    nothing was dropped (a self-check of the recorder)."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_by_name = defaultdict(int)
    for s in spans:
        self_by_name[s["name"]] += s["end_ns"] - s["start_ns"] - child[s["id"]]
    return all(self_by_name[t["name"]] == t["self_ns"] for t in totals)


def summarize(path):
    meta, spans, totals, estimates, dropped = load(path)
    wall_s = float(meta.get("run_wall_s", 0.0))
    print("== %s: workload %s, seed %s, run_wall_s %.3f s" %
          (path, meta.get("workload", "?"), meta.get("seed", "?"), wall_s))

    # Spans inside the measured "workload" spans, by layer, as a share of
    # their wall time; the layer replays ran outside them and are listed
    # with their own durations.
    measured_ns = sum(t["total_ns"] for t in totals if t["name"] == "workload")
    layers = defaultdict(lambda: [0, 0])  # layer -> [count, self_ns]
    replays = []
    for t in totals:
        if t["name"] in ("workload", "replay"):
            continue
        if t["name"].startswith("replay."):
            replays.append(t)
            continue
        cell = layers[layer_of(t["name"])]
        cell[0] += t["count"]
        cell[1] += t["self_ns"]
    print("  measured (workload spans): %.3f s" % (measured_ns / 1e9))
    print("  %-22s %12s %14s %10s" % ("layer (self time)", "calls", "self_ms", "share"))
    for layer, (count, self_ns) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        share = self_ns / measured_ns if measured_ns > 0 else 0.0
        print("  %-22s %12d %14.3f %9.1f%%" % (layer, count, self_ns / 1e6, 100 * share))
    if replays:
        print("  layer replays (outside the measured spans): " +
              ", ".join("%s %.0f ms" % (t["name"][len("replay."):], t["total_ns"] / 1e6)
                        for t in replays))

    print("  %-36s %10s %12s %14s" % ("span", "calls", "self_ms", "mean_self_ns"))
    for t in sorted(totals, key=lambda t: -t["self_ns"])[:15]:
        mean = t["self_ns"] / t["count"] if t["count"] else 0.0
        print("  %-36s %10d %12.3f %14.0f" % (t["name"], t["count"], t["self_ns"] / 1e6, mean))

    if estimates:
        print("  estimated layer share of run_wall_s (calls x replayed ns per call):")
        for e in estimates:
            ns = e["calls"] * e["ns_per_call"]
            share = ns / 1e9 / wall_s if wall_s > 0 else 0.0
            print("    %-20s %14.0f calls x %10.1f ns = %9.3f s  %6.1f%%" %
                  (e["layer"], e["calls"], e["ns_per_call"], ns / 1e9, 100 * share))

    if "untraced_wall_s" in meta:
        base = float(meta["untraced_wall_s"])
        traced = float(meta["traced_wall_s"])
        print("  tracing overhead: %.1f%% (traced %.3f s vs untraced %.3f s per unit)" %
              (100 * (traced / base - 1) if base else 0.0, traced, base))
    elif "untraced_commits_per_s" in meta:
        base = float(meta["untraced_commits_per_s"])
        traced = float(meta["traced_commits_per_s"])
        print("  tracing overhead: %.1f%% (untraced %.0f vs traced %.0f commits/s)" %
              (100 * (base / traced - 1) if traced else 0.0, base, traced))
    print("  spans stored %d, dropped %d%s" %
          (len(spans), dropped,
           "; self times recomputed from spans agree" if not dropped and check_self_times(spans, totals)
           else ""))


def main(argv):
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    for path in argv[1:]:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

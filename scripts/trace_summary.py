#!/usr/bin/env python3
"""Summarise per-command critical-path CSVs into a phase-attribution table.

Input is the CSV produced by obs::paths_to_csv (for example the
trace-suite sample at build/tests/critical_path_sample.csv): one row
per critical-path segment, with columns

  protocol,request,trace,submit_ns,commit_ns,total_ns,
  phase_index,phase,node,peer,begin_ns,end_ns,dur_ns

For each protocol in the file the script prints, per phase: how many
commands hit that phase, total/mean time spent in it, and its share of
the protocol's summed end-to-end latency.  Shares add up to 100% because
the analyzer tiles [submit, commit] exactly.

Arguments may also be directories: each is scanned (non-recursively) for
*.csv files, and every file found is summarised as its own run with a
one-line digest (file, protocol, commands, mean latency, dominant phase)
instead of the full table — handy for a results/ directory of sweeps.
Explicitly named files keep the full per-phase table.

*.json arguments are treated as Chrome-trace exports
(obs::chrome_trace_json): the script prints a recovery
summary instead — per node, crash/recover fault instants and every
amnesiac-recovery interval (the "recovery" complete slices emitted at
rejoin), with downtime and catch-up durations.

Stdlib only; no third-party dependencies.

Usage:
  python3 scripts/trace_summary.py <csv-json-or-dir> [<more> ...]
"""

import csv
import json
import os
import sys
from collections import defaultdict


def load(paths):
    """Return {protocol: {phase: [total_ns, hits, commands]}} plus totals."""
    phases = defaultdict(lambda: defaultdict(lambda: [0, 0, set()]))
    commands = defaultdict(set)
    for path in paths:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                proto = row["protocol"]
                key = (row["request"], row["trace"])
                commands[proto].add(key)
                cell = phases[proto][row["phase"]]
                cell[0] += int(row["dur_ns"])
                cell[1] += 1
                cell[2].add(key)
    return phases, commands


def print_table(proto, phase_map, n_commands):
    total_ns = sum(cell[0] for cell in phase_map.values())
    print(f"\n{proto}: {n_commands} commands, "
          f"{total_ns / n_commands / 1e6:.3f} ms mean end-to-end latency")
    header = f"  {'phase':<24} {'cmds':>6} {'total ms':>10} {'mean ms':>9} {'share':>7}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    ranked = sorted(phase_map.items(), key=lambda kv: kv[1][0], reverse=True)
    for phase, (ns, hits, cmds) in ranked:
        print(f"  {phase:<24} {len(cmds):>6} {ns / 1e6:>10.3f} "
              f"{ns / hits / 1e6:>9.3f} {100.0 * ns / total_ns:>6.1f}%")
    print(f"  {'(sum)':<24} {'':>6} {total_ns / 1e6:>10.3f} {'':>9} {100.0:>6.1f}%")


def recovery_summary(path):
    """Per-node crash/recovery report from a Chrome-trace JSON export.

    Recovery intervals are the cat=="recovery" complete ("X") slices the
    exporter writes at rejoin time; crash/recover instants are the
    cat=="fault" node-scoped events.  Timestamps in the file are in
    microseconds of virtual time.
    """
    with open(path) as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", [])
    crashes = defaultdict(int)
    recovers = defaultdict(int)
    intervals = defaultdict(list)  # node -> [(start_us, dur_us)]
    for e in events:
        node = e.get("tid", 0)
        if e.get("cat") == "recovery" and e.get("ph") == "X":
            intervals[node].append((e["ts"], e["dur"]))
        elif e.get("cat") == "fault":
            if e.get("name") == "node_crash":
                crashes[node] += 1
            elif e.get("name") == "node_recover":
                recovers[node] += 1

    nodes = sorted(set(crashes) | set(recovers) | set(intervals))
    if not nodes:
        print(f"{path}: no crash/recovery events")
        return
    n_intervals = sum(len(v) for v in intervals.values())
    total_ms = sum(dur for v in intervals.values() for _, dur in v) / 1e3
    print(f"{path}: {sum(crashes.values())} crashes, "
          f"{sum(recovers.values())} recoveries, "
          f"{n_intervals} amnesiac rejoins, "
          f"{total_ms:.3f} ms total catch-up time")
    header = f"  {'node':>6} {'crashes':>8} {'recovers':>9} {'rejoins':>8} {'catch-up intervals (ms)':<40}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for node in nodes:
        spans = ", ".join(f"[{ts / 1e3:.1f} +{dur / 1e3:.1f}]"
                          for ts, dur in sorted(intervals.get(node, [])))
        print(f"  {node:>6} {crashes.get(node, 0):>8} {recovers.get(node, 0):>9} "
              f"{len(intervals.get(node, [])):>8} {spans:<40}")


def is_trace_csv(path):
    """Directories hold mixed exports; only digest critical-path CSVs."""
    with open(path, newline="") as fh:
        header = csv.DictReader(fh).fieldnames or []
    return {"protocol", "phase", "dur_ns"} <= set(header)


def print_digest(path):
    """One line per run: file, protocol, commands, mean latency, top phase."""
    if not is_trace_csv(path):
        print(f"{path}: not a critical-path CSV, skipped")
        return
    phases, commands = load([path])
    if not phases:
        print(f"{path}: no critical-path rows")
        return
    for proto in sorted(phases):
        phase_map = phases[proto]
        n = len(commands[proto])
        total_ns = sum(cell[0] for cell in phase_map.values())
        top_phase, top_cell = max(phase_map.items(), key=lambda kv: kv[1][0])
        print(f"{path}: {proto} {n} commands, "
              f"{total_ns / n / 1e6:.3f} ms mean, "
              f"top phase {top_phase} ({100.0 * top_cell[0] / total_ns:.1f}%)")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    digests = []
    traces = []
    for arg in argv[1:]:
        if os.path.isdir(arg):
            digests.extend(os.path.join(arg, name)
                           for name in sorted(os.listdir(arg))
                           if name.endswith(".csv"))
            traces.extend(os.path.join(arg, name)
                          for name in sorted(os.listdir(arg))
                          if name.endswith(".json"))
        elif arg.endswith(".json"):
            traces.append(arg)
        else:
            files.append(arg)
    for path in digests:
        print_digest(path)
    for path in traces:
        recovery_summary(path)
    if not files:
        return 0 if digests or traces else 1
    phases, commands = load(files)
    if not phases:
        print("no critical-path rows found", file=sys.stderr)
        return 1
    for proto in sorted(phases):
        print_table(proto, phases[proto], len(commands[proto]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

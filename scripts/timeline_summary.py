#!/usr/bin/env python3
"""Summarise windowed-telemetry timelines and steady-state verdicts,
optionally as an HTML sparkline dashboard.

Inputs (mix freely; directories are scanned non-recursively):

  *.json  either a run report (harness::report_json) with a
          "timeline" block — {"interval_ms", "series": {"windows", ...,
          "metrics": {name: {kind, arrays...}}}} — and an optional "slo"
          block, or a schema-v2 bench report (bench::emit_json_report)
          whose results each carry a "timeline".
  *.csv   the per-window CSV from obs::timeseries_to_csv:
          window,start_ns,end_ns,kind,name,field,value.

For every timeline the script prints one table row per metric: windows
seen, lifetime total (counters: summed deltas; histograms: summed counts),
the busiest window, and for histograms the worst per-window p95.  SLO
blocks print steady-state verdicts (fault kind, reached, time-to-steady).

With --html OUT a self-contained dashboard is written: one inline-SVG
sparkline per metric series (counter deltas, gauge values, histogram p95),
no external assets, openable from a CI artifact listing.

Stdlib only; no third-party dependencies.

Usage:
  python3 scripts/timeline_summary.py [--html OUT] <json-csv-or-dir> ...
"""

import csv
import html
import json
import os
import sys
from collections import defaultdict


def series_rows(series):
    """Flatten a timeline "series" block into (name, kind, values, summary).

    `values` is the plottable per-window sequence (counter deltas, gauge
    values, histogram p95 in ns) and `summary` a dict of display fields.
    """
    rows = []
    n = series.get("windows", 0)
    for name in sorted(series.get("metrics", {})):
        m = series["metrics"][name]
        kind = m.get("kind", "?")
        if kind == "counter":
            deltas = m.get("delta", [])
            total = sum(deltas)
            rows.append((name, kind, deltas,
                         {"total": total,
                          "peak_window": max(deltas, default=0)}))
        elif kind == "gauge":
            values = m.get("value", [])
            rows.append((name, kind, values,
                         {"total": values[-1] if values else 0,
                          "peak_window": max(values, default=0)}))
        elif kind == "histogram":
            counts = m.get("count", [])
            p95 = m.get("p95", [])
            rows.append((name, kind, p95,
                         {"total": sum(counts),
                          "peak_window": max(counts, default=0),
                          "worst_p95_ms": max(p95, default=0) / 1e6}))
    return n, rows


def print_timeline(label, interval_ms, series):
    n, rows = series_rows(series)
    dropped = series.get("dropped_windows", 0)
    drop = f", {dropped} dropped" if dropped else ""
    print(f"\n{label}: {n} windows x {interval_ms:.0f} ms{drop}")
    header = (f"  {'metric':<36} {'kind':<10} {'total':>12} "
              f"{'peak/window':>12} {'worst p95 ms':>13}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name, kind, _values, s in rows:
        p95 = f"{s['worst_p95_ms']:>13.3f}" if "worst_p95_ms" in s else f"{'-':>13}"
        print(f"  {name:<36} {kind:<10} {s['total']:>12} "
              f"{s['peak_window']:>12} {p95}")


def print_slo(label, slo):
    steady = slo.get("steady_state", [])
    if not steady:
        return
    print(f"\n{label}: steady-state verdicts "
          f"(steady metric {slo.get('steady_metric', '?')}, "
          f"tolerance {slo.get('steady_tolerance', 0):.2f}, "
          f"K={slo.get('steady_windows', 0)})")
    for s in steady:
        if s["reached"]:
            verdict = (f"settled in {s['time_to_steady_ns'] / 1e6:.1f} ms "
                       f"(window {s['settle_window']})")
        else:
            verdict = "NEVER SETTLED"
        print(f"  fault {s['fault_kind']:<10} @{s['fault_ns'] / 1e6:>9.1f} ms "
              f"node {s['node']:<4} baseline {s['baseline']:>10.6g}  {verdict}")


def load_json(path):
    """Yield (label, interval_ms, series, slo_or_None) per timeline in file."""
    with open(path) as fh:
        doc = json.load(fh)
    base = os.path.basename(path)
    if "results" in doc:  # bench report (schema v2)
        meta = doc.get("meta", {})
        interval = meta.get("timeseries_interval_ms", 0.0)
        for label in sorted(doc["results"]):
            tl = doc["results"][label].get("timeline")
            if tl is not None:
                yield f"{base}:{label}", interval, tl, None
        return
    tl = doc.get("timeline")
    if tl is not None:
        label = doc.get("protocol", base)
        yield f"{base}:{label}", tl.get("interval_ms", 0.0), tl.get("series", {}), \
            doc.get("slo")


def csv_summary(path):
    """Digest a timeline CSV: per metric, windows / total / worst p95."""
    windows = set()
    totals = defaultdict(int)  # (kind, name) -> counter deltas or histogram count
    worst_p95 = defaultdict(int)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames or "window" not in reader.fieldnames:
            print(f"{path}: not a timeline CSV, skipped")
            return
        for row in reader:
            windows.add(row["window"])
            key = (row["kind"], row["name"])
            if row["field"] in ("delta", "count"):
                totals[key] += int(row["value"])
            elif row["field"] == "p95":
                worst_p95[key] = max(worst_p95[key], int(row["value"]))
    print(f"\n{path}: {len(windows)} windows, {len(totals)} metrics")
    header = f"  {'metric':<36} {'kind':<10} {'total':>12} {'worst p95 ms':>13}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for (kind, name) in sorted(totals):
        p95 = worst_p95.get((kind, name), 0)
        p95_s = f"{p95 / 1e6:>13.3f}" if kind == "histogram" else f"{'-':>13}"
        print(f"  {name:<36} {kind:<10} {totals[(kind, name)]:>12} {p95_s}")


def sparkline(values, width=260, height=40):
    """Inline-SVG sparkline; flat series render as a midline."""
    if not values:
        return "<svg/>"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1
    step = width / max(len(values) - 1, 1)
    pts = " ".join(
        f"{i * step:.1f},{height - 3 - (v - lo) / span * (height - 6):.1f}"
        for i, v in enumerate(values))
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline points="{pts}" fill="none" '
            f'stroke="#2a6fb0" stroke-width="1.5"/></svg>')


def html_dashboard(timelines, out_path):
    parts = [
        "<!doctype html><meta charset='utf-8'><title>timeline dashboard</title>",
        "<style>body{font:13px/1.4 sans-serif;margin:24px}"
        "h2{margin:24px 0 4px}table{border-collapse:collapse}"
        "td,th{padding:2px 10px;text-align:left;border-bottom:1px solid #ddd}"
        "td.num{text-align:right;font-variant-numeric:tabular-nums}</style>",
        "<h1>Windowed telemetry</h1>",
    ]
    for label, interval_ms, series, slo in timelines:
        n, rows = series_rows(series)
        parts.append(f"<h2>{html.escape(label)}</h2>"
                     f"<p>{n} windows &times; {interval_ms:.0f} ms</p>")
        parts.append("<table><tr><th>metric</th><th>kind</th>"
                     "<th>sparkline</th><th>total</th><th>peak/window</th></tr>")
        for name, kind, values, s in rows:
            parts.append(
                f"<tr><td>{html.escape(name)}</td><td>{kind}</td>"
                f"<td>{sparkline(values)}</td>"
                f"<td class='num'>{s['total']}</td>"
                f"<td class='num'>{s['peak_window']}</td></tr>")
        parts.append("</table>")
        if slo:
            parts.append("<p>")
            for st in slo.get("steady_state", []):
                verdict = (f"settled in {st['time_to_steady_ns'] / 1e6:.1f} ms"
                           if st["reached"] else "<b>never settled</b>")
                parts.append(
                    f"fault {html.escape(st['fault_kind'])} @"
                    f"{st['fault_ns'] / 1e6:.1f} ms: {verdict}<br>")
            parts.append("</p>")
    with open(out_path, "w") as fh:
        fh.write("".join(parts))
    print(f"\n[html dashboard written to {out_path}]")


def main(argv):
    args = argv[1:]
    html_out = None
    if "--html" in args:
        i = args.index("--html")
        if i + 1 >= len(args):
            print("--html needs an output path", file=sys.stderr)
            return 2
        html_out = args[i + 1]
        del args[i:i + 2]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    jsons, csvs = [], []
    for arg in args:
        if os.path.isdir(arg):
            for name in sorted(os.listdir(arg)):
                path = os.path.join(arg, name)
                (jsons if name.endswith(".json") else
                 csvs if name.endswith(".csv") else []).append(path)
        elif arg.endswith(".json"):
            jsons.append(arg)
        else:
            csvs.append(arg)

    timelines = []
    for path in jsons:
        for label, interval, series, slo in load_json(path):
            timelines.append((label, interval, series, slo))
            print_timeline(label, interval, series)
            if slo:
                print_slo(label, slo)
    for path in csvs:
        csv_summary(path)
    if html_out and timelines:
        html_dashboard(timelines, html_out)
    if not timelines and not csvs:
        print("no timelines found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

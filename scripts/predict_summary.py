#!/usr/bin/env python3
"""Summarise prediction-audit CSVs (decision records and calibration).

Input is either kind of prediction-audit CSV, recognised by header:

  obs::decisions_to_csv()       one row per reconciled client decision
    protocol,request,mode,chosen,outcome,...,error_ns,error_valid,
    regret_ns,hindsight_best_ns,regret_valid,...,blamed,blamed_overshoot_ns

  obs::calibration_to_csv()     one row per (owner,target) estimator series
    owner,target,samples,covered,coverage,mean_margin_ns,max_overshoot_ns

Arguments may be CSV files or directories; directories are scanned
(non-recursively) for *.csv and every recognised file is folded in. For
decision files the script prints, per protocol: path/outcome mix, mean
absolute prediction error, total and mean oracle regret, and the most
blamed replicas. For calibration files: per-series coverage and the
worst-covered series.

Stdlib only; no third-party dependencies.

Usage:
  python3 scripts/predict_summary.py <csv-or-dir> [<csv-or-dir> ...]
"""

import csv
import os
import sys
from collections import defaultdict

DECISION_KEY = "regret_ns"      # only decision CSVs have this column
CALIBRATION_KEY = "mean_margin_ns"  # only calibration CSVs have this one


def expand(paths):
    """Yield CSV file paths, scanning directories one level deep."""
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".csv"):
                    yield os.path.join(path, name)
        else:
            yield path


def load(paths):
    decisions = defaultdict(list)   # protocol -> rows
    calibrations = []               # rows (owner/target are globally unique)
    skipped = []
    for path in expand(paths):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if DECISION_KEY in fields:
                for row in reader:
                    decisions[row["protocol"]].append(row)
            elif CALIBRATION_KEY in fields:
                calibrations.extend(reader)
            else:
                skipped.append(path)
    return decisions, calibrations, skipped


def print_decisions(proto, rows):
    n = len(rows)
    by_chosen = defaultdict(int)
    by_outcome = defaultdict(int)
    blamed = defaultdict(int)
    err_sum = err_n = 0
    regret_sum = regret_n = regret_max = 0
    failovers = overrides = 0
    for row in rows:
        by_chosen[row["chosen"]] += 1
        by_outcome[row["outcome"]] += 1
        failovers += row["failover"] == "1"
        overrides += row["adaptive_override"] == "1"
        if row["error_valid"] == "1":
            err_sum += abs(int(row["error_ns"]))
            err_n += 1
        if row["regret_valid"] == "1":
            r = int(row["regret_ns"])
            regret_sum += r
            regret_max = max(regret_max, r)
            regret_n += 1
        if row["blamed"] != "-":
            blamed[row["blamed"]] += 1

    chosen = " ".join(f"{k}={v}" for k, v in sorted(by_chosen.items()))
    outcome = " ".join(f"{k}={v}" for k, v in sorted(by_outcome.items()))
    print(f"\n{proto}: {n} decisions  [{chosen}]  [{outcome}]")
    if failovers or overrides:
        print(f"  failovers={failovers} adaptive_overrides={overrides}")
    if err_n:
        print(f"  prediction error: {err_n} samples, "
              f"mean |error| {err_sum / err_n / 1e6:.3f} ms")
    if regret_n:
        print(f"  oracle regret:    {regret_n} samples, "
              f"total {regret_sum / 1e6:.3f} ms, "
              f"mean {regret_sum / regret_n / 1e6:.3f} ms, "
              f"max {regret_max / 1e6:.3f} ms")
    if blamed:
        worst = sorted(blamed.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        print("  most blamed:      "
              + ", ".join(f"{node} x{count}" for node, count in worst))


def print_calibration(rows):
    samples = sum(int(r["samples"]) for r in rows)
    covered = sum(int(r["covered"]) for r in rows)
    print(f"\ncalibration: {len(rows)} series, {samples} samples, "
          f"overall coverage {covered / samples:.3f}" if samples else
          f"\ncalibration: {len(rows)} series, no samples")
    worst = sorted(rows, key=lambda r: (float(r["coverage"]), r["owner"], r["target"]))[:3]
    for r in worst:
        print(f"  worst: {r['owner']}->{r['target']} coverage "
              f"{float(r['coverage']):.3f} over {r['samples']} samples, "
              f"max overshoot {int(r['max_overshoot_ns']) / 1e6:.3f} ms")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    decisions, calibrations, skipped = load(argv[1:])
    for path in skipped:
        print(f"skipping unrecognised CSV: {path}", file=sys.stderr)
    if not decisions and not calibrations:
        print("no prediction-audit rows found", file=sys.stderr)
        return 1
    for proto in sorted(decisions):
        print_decisions(proto, decisions[proto])
    if calibrations:
        print_calibration(calibrations)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

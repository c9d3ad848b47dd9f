#!/usr/bin/env bash
# Append one perfbench report per gated workload to BENCH_perfbench.jsonl,
# the repository's performance trajectory.
#
# Usage:
#   scripts/perfbench_trajectory.sh <pr> <parent|change> [checkout]
#
# Runs globe_paper, cluster_load and faults_trace at seed 1 from `checkout`
# (default: this repository) and appends each run's final JSON line, plus
# the keys pr, side and workload, to BENCH_perfbench.jsonl in this
# repository. To record a PR's parent, pass a clean checkout of the parent
# commit (e.g. from `git archive`) as `checkout`. Each workload runs for
# 20 s, as BENCHMARK.json runs it; the build goes wherever CARGO_TARGET_DIR
# points, as for perfbench/run.py.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 || ! $1 =~ ^[0-9]+$ || ! $2 =~ ^(parent|change)$ ]]; then
  echo "usage: $0 <pr> <parent|change> [checkout]" >&2
  exit 2
fi
pr=$1
side=$2
root=$(cd "$(dirname "$0")/.." && pwd)
checkout=$(cd "${3:-$root}" && pwd)
out="$root/BENCH_perfbench.jsonl"

for workload in globe_paper cluster_load faults_trace; do
  report=$(cd "$checkout" && python3 perfbench/run.py --workload "$workload" --seed 1 \
             --seconds 20 --trace 0 | tail -n 1)
  python3 - "$report" "$pr" "$side" "$workload" >> "$out" <<'EOF'
import json, sys
report, pr, side, workload = sys.argv[1:]
line = json.loads(report)
line.update(pr=int(pr), side=side, workload=workload)
print(json.dumps(line))
EOF
done

#!/usr/bin/env bash
# Print the line count of src/, the number ROADMAP's "Least code for the
# same behaviour" item tracks, and the count of each top-level directory
# under it (`src` is the files directly in src/).
#
# Usage:
#   scripts/src_loc.sh [<base-rev>]
#
# Counts the lines of every git-tracked file under src/ as it stands in the
# working tree (`git ls-files src | xargs wc -l`; in a clean checkout that
# is HEAD). With <base-rev>, also counts src/ at that revision and prints
# the delta, in total and per directory (base -> now), e.g.
# `scripts/src_loc.sh HEAD~1` for the last commit's change.
set -euo pipefail
export LC_ALL=C

if [[ $# -gt 1 ]]; then
  echo "usage: $0 [<base-rev>]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."

# "dir lines" per top-level directory of the NUL-separated src/ paths on
# stdin, sorted by directory.
per_dir() {
  xargs -0 wc -l | awk '$2 != "total" {
    split($2, p, "/")
    n[p[3] == "" ? "src" : p[1] "/" p[2]] += $1
  } END { for (d in n) print d, n[d] }' | sort
}

head=$(git ls-files -z src | xargs -0 cat | wc -l)
head_dirs=$(git ls-files -z src | per_dir)
echo "src/ lines: $head"
if [[ $# -eq 0 ]]; then
  awk '{ printf "  %-16s %6d\n", $1, $2 }' <<<"$head_dirs"
  exit 0
fi

base_tree=$(mktemp -d)
trap 'rm -rf "$base_tree"' EXIT
git archive "$1" src | tar -x -C "$base_tree"
base=$(cd "$base_tree" && find src -type f -print0 | xargs -0 cat | wc -l)
base_dirs=$(cd "$base_tree" && find src -type f -print0 | per_dir)
echo "src/ lines at $1: $base"
echo "delta: $((head - base))"
join -a1 -a2 -e0 -o0,1.2,2.2 <(echo "$base_dirs") <(echo "$head_dirs") |
  awk '{ printf "  %-16s %6d -> %6d  %+d\n", $1, $2, $3, $3 - $2 }'

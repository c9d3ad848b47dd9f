#!/usr/bin/env bash
# Print the line count of src/, the number ROADMAP item 7 tracks.
#
# Usage:
#   scripts/src_loc.sh [<base-rev>]
#
# Counts the lines of every git-tracked file under src/ as it stands in the
# working tree (`git ls-files src | xargs wc -l`; in a clean checkout that
# is HEAD). With <base-rev>, also counts src/ at that revision and prints
# the delta, e.g. `scripts/src_loc.sh HEAD~1` for the last commit's change.
set -euo pipefail

if [[ $# -gt 1 ]]; then
  echo "usage: $0 [<base-rev>]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."

head=$(git ls-files -z src | xargs -0 cat | wc -l)
echo "src/ lines: $head"
if [[ $# -eq 1 ]]; then
  base=$(git archive "$1" src | tar -xO | wc -l)
  echo "src/ lines at $1: $base"
  echo "delta: $((head - base))"
fi

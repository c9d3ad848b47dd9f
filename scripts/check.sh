#!/usr/bin/env bash
# Tier-1 check: configure, build, and run test suites.
#
# Usage:
#   scripts/check.sh              # plain RelWithDebInfo build + full ctest
#   scripts/check.sh --sanitize   # full suite with ASan + UBSan (DOMINO_SANITIZE)
#   scripts/check.sh --chaos      # chaos suite only (ctest -L chaos), sanitized
#   scripts/check.sh --trace      # tracing suite only (ctest -L trace), sanitized
#   scripts/check.sh --predict    # prediction-audit suite (ctest -L predict), sanitized
#   scripts/check.sh --recovery   # crash-recovery suite (ctest -L recovery), sanitized
#   scripts/check.sh --timeline   # windowed-telemetry/SLO suite (ctest -L timeline), sanitized
#   scripts/check.sh --wan        # WAN delay-trace suite (ctest -L wan), sanitized
#   scripts/check.sh --bench-baseline [--record]
#                                 # run the regression-gate bench and compare it
#                                 # against scripts/baselines/BENCH_gate.json
#                                 # (fails if that file is missing; --record
#                                 # writes or refreshes it instead)
#   scripts/check.sh --all        # plain full suite, then every sanitized gate
#
# The build directory is build/ (or build-asan/ for sanitized modes) under
# the repository root. Extra arguments are forwarded to ctest.
#
# Gates (one row per mode in the table below):
#   --chaos   robustness: the seeded fault-injection sweep under ASan+UBSan
#             catches the memory errors fault-handling paths are prone to.
#   --trace   observability: causal tracing, critical paths, Chrome export;
#             smoke-runs scripts/trace_summary.py on the suite's sample CSV.
#   --predict prediction audit: decision-record reconciliation, calibration
#             and the exact oracle-regret identity; smoke-runs
#             scripts/predict_summary.py on the suite's sample CSVs.
#   --recovery amnesia-aware crash recovery: durable replay, peer catch-up,
#             and the weakened-persistence negative test; ASan+UBSan flags
#             use-after-free in restart/replay paths.  Smoke-runs
#             scripts/trace_summary.py on the suite's Chrome-trace sample
#             (per-node recovery intervals).
#   --timeline windowed telemetry: per-window counter/histogram deltas and
#             time-to-steady-state after faults; smoke-runs
#             scripts/timeline_summary.py on the suite's sample timeline
#             (tables + HTML sparkline dashboard) and
#             scripts/bench_compare.py --selftest.
#   --wan     WAN delay traces: adversarial CSV ingestion, empirical replay
#             models, non-stationary generators and the calibration-under-
#             drift acceptance run; smoke-runs scripts/trace_stats.py on the
#             checked-in fixtures under bench/traces/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

# Mode table: mode -> "build_subdir:sanitize:ctest_label:smoke".
# Empty label = full suite; smoke names the post-ctest tooling check.
declare -A modes=(
  [--default]="build:0::"
  [--sanitize]="build-asan:1::"
  [--chaos]="build-asan:1:chaos:"
  [--trace]="build-asan:1:trace:trace"
  [--predict]="build-asan:1:predict:predict"
  [--recovery]="build-asan:1:recovery:recovery"
  [--timeline]="build-asan:1:timeline:timeline"
  [--wan]="build-asan:1:wan:wan"
)

usage() {
  sed -n '2,44p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
}

# Summarise a CSV with a stdlib-only script iff python3 and the file exist
# (test suites write the samples into the build's tests/ directory).
smoke_csv() {
  local script="$1"; shift
  local missing=0
  for f in "$@"; do [[ -f "$f" ]] || missing=1; done
  if command -v python3 >/dev/null && [[ "$missing" == 0 ]]; then
    python3 "$script" "$@"
  else
    echo "$(basename "$script") smoke skipped (python3 or sample missing: $*)" >&2
  fi
}

run_smoke() {
  local smoke="$1" build_dir="$2"
  case "$smoke" in
    trace)
      smoke_csv "$root/scripts/trace_summary.py" "$build_dir/tests/critical_path_sample.csv"
      ;;
    predict)
      smoke_csv "$root/scripts/predict_summary.py" \
        "$build_dir/tests/predict_sample.csv" "$build_dir/tests/calibration_sample.csv"
      ;;
    recovery)
      smoke_csv "$root/scripts/trace_summary.py" \
        "$build_dir/tests/recovery_trace_sample.json"
      ;;
    timeline)
      local sample_json="$build_dir/tests/timeline_sample.json"
      local sample_csv="$build_dir/tests/timeline_sample.csv"
      if command -v python3 >/dev/null && [[ -f "$sample_json" && -f "$sample_csv" ]]; then
        python3 "$root/scripts/timeline_summary.py" \
          --html "$build_dir/tests/timeline_dashboard.html" \
          "$sample_json" "$sample_csv"
        python3 "$root/scripts/bench_compare.py" --selftest
      else
        echo "timeline smoke skipped (python3 or samples missing)" >&2
      fi
      ;;
    wan)
      smoke_csv "$root/scripts/trace_stats.py" \
        "$root/bench/traces/globe_va.csv" "$root/bench/traces/va_wa_drift.csv"
      ;;
  esac
}

# Run the deterministic regression-gate bench and diff it against the
# checked-in baseline; with --record, refresh the baseline instead. Only
# --record writes the baseline: a missing one fails the compare.
bench_baseline() {
  local record=0
  [[ "${1:-}" == "--record" ]] && record=1
  local baseline="$root/scripts/baselines/BENCH_gate.json"
  if [[ "$record" == 0 && ! -f "$baseline" ]]; then
    echo "missing bench baseline $baseline;" \
      "run scripts/check.sh --bench-baseline --record to create it" >&2
    return 1
  fi
  local build_dir="$root/build"
  cmake -B "$build_dir" -S "$root"
  cmake --build "$build_dir" -j "$(nproc)" --target bench_regression_gate
  local out="$build_dir/bench/BENCH_gate.json"
  "$build_dir/bench/bench_regression_gate" "$out"
  if [[ "$record" == 1 ]]; then
    mkdir -p "$(dirname "$baseline")"
    cp "$out" "$baseline"
    echo "bench baseline recorded at $baseline"
  else
    python3 "$root/scripts/bench_compare.py" "$baseline" "$out"
  fi
}

run_mode() {
  local mode="$1"; shift
  local row="${modes[$mode]}"
  local subdir sanitize label smoke
  IFS=: read -r subdir sanitize label smoke <<<"$row"
  local build_dir="$root/$subdir"
  local cmake_args=()
  [[ "$sanitize" == 1 ]] && cmake_args+=(-DDOMINO_SANITIZE=ON)
  local ctest_args=()
  [[ -n "$label" ]] && ctest_args+=(-L "$label")

  cmake -B "$build_dir" -S "$root" "${cmake_args[@]}"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "${ctest_args[@]}" "$@"
  run_smoke "$smoke" "$build_dir"
}

mode="--default"
case "${1:-}" in
  --help|-h) usage ;;
  --all)
    shift
    # Full plain suite first, then every sanitized gate (one build-asan
    # configure+build serves all six labelled suites).
    run_mode --default "$@"
    for gate in --chaos --trace --predict --recovery --timeline --wan; do run_mode "$gate" "$@"; done
    exit 0
    ;;
  --bench-baseline)
    shift
    bench_baseline "$@"
    exit 0
    ;;
  --*)
    [[ -v "modes[$1]" ]] || usage
    mode="$1"
    shift
    ;;
esac

run_mode "$mode" "$@"

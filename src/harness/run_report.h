// Per-run report: one JSON document tying together the scenario, the
// latency summary (from the LatencyCollector), the full metrics registry
// and the incident log. Deterministic: same seed, same protocol,
// same scenario => byte-identical report (all timestamps are virtual, all
// maps iterate in name order).
//
// The other per-run exports read the RunResult through their obs::
// exporter directly: obs::chrome_trace_json (spans + fault lane),
// obs::paths_to_csv (critical paths), obs::decisions_to_csv and
// obs::calibration_to_csv (prediction audit), obs::timeseries_to_csv
// (timeline).
#pragma once

#include <string>

#include "harness/runner.h"

namespace domino::harness {

/// Render a finished run as a JSON document. The incident log is included
/// as an event array when `include_trace` is set. The "metrics"/"trace"
/// blocks are omitted when observability was off, the span counts unless
/// Scenario::command_spans, the "predict"/"calibration" blocks unless
/// Scenario::prediction_audit, and the "timeline"/"slo" blocks unless
/// Scenario::timeseries_interval was set.
[[nodiscard]] std::string report_json(Protocol protocol, const Scenario& scenario,
                                      const RunResult& result, bool include_trace = false);

}  // namespace domino::harness

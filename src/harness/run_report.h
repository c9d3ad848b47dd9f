// Per-run report: one JSON document tying together the scenario, the
// latency summary (from the LatencyCollector), the full metrics registry
// and the incident log. Deterministic: same seed, same protocol,
// same scenario => byte-identical report (all timestamps are virtual, all
// maps iterate in name order).
#pragma once

#include <string>

#include "harness/runner.h"

namespace domino::harness {

struct RunReport {
  std::string protocol;
  std::uint64_t seed = 0;
  std::size_t replicas = 0;
  std::size_t clients = 0;
  double rps = 0.0;
  Duration warmup = Duration::zero();
  Duration measure = Duration::zero();

  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  double throughput_rps = 0.0;
  std::uint64_t fast_path = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Crash-recovery accounting (all zero on runs without durability).
  recovery::RecoveryStats recovery;
  std::int64_t recovery_downtime_ns = 0;

  LatencySummary latency;

  // Borrowed from the RunResult; may be null (observability disabled).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceRecorder> trace;
  std::shared_ptr<obs::SpanStore> spans;  // null unless Scenario::command_spans
  std::vector<obs::CommandPath> critical_paths;
  /// Decision-record audit; null unless Scenario::prediction_audit (the
  /// "predict" JSON block and predict_csv() are omitted/empty then).
  std::shared_ptr<obs::PredictionAudit> predict;
  std::vector<obs::CalibrationRow> calibration;
  /// Windowed telemetry + SLO evaluation; timeseries is null (and the
  /// "timeline"/"slo" JSON blocks omitted) unless
  /// Scenario::timeseries_interval was set.
  std::shared_ptr<obs::Timeseries> timeseries;
  obs::SloReport slo;
  Duration timeseries_interval = Duration::zero();

  /// Render the whole report as a JSON document. The incident log is
  /// included as an event array when `include_trace` is set.
  [[nodiscard]] std::string to_json(bool include_trace = false) const;

  /// Write to_json(include_trace) to `path`.
  void write(const std::string& path, bool include_trace = false) const;

  /// Chrome trace_event JSON for the run (spans + message flows + fault
  /// instants). Valid (if empty) even when spans were disabled.
  [[nodiscard]] std::string chrome_trace() const;

  /// Per-command critical-path CSV (obs::paths_to_csv with this report's
  /// protocol name).
  [[nodiscard]] std::string command_csv() const;

  /// Per-command decision-record CSV (obs::decisions_to_csv). Header-only
  /// when the prediction audit was disabled or recorded nothing.
  [[nodiscard]] std::string predict_csv() const;

  /// Per-(owner,target) estimator-calibration CSV (obs::calibration_to_csv).
  [[nodiscard]] std::string calibration_csv() const;

  /// Per-window telemetry CSV (obs::timeseries_to_csv). Header-only when
  /// sampling was off.
  [[nodiscard]] std::string timeline_csv() const;
};

/// Assemble a report from a finished run.
[[nodiscard]] RunReport make_report(Protocol protocol, const Scenario& scenario,
                                    const RunResult& result);

}  // namespace domino::harness

#include "harness/run_report.h"

#include "obs/export.h"

namespace domino::harness {

namespace {

// Shared formatting helpers (obs/json.h) under the names this file has
// always used.
using obs::append_i64;
using obs::append_u64;
using obs::appendf;

void append_latency_stats(std::string& out, const LatencyStats& s) {
  out += "{\"count\":";
  append_u64(out, s.count);
  out += ",\"mean\":";
  appendf(out, "%.6f", s.mean);
  out += ",\"min\":";
  appendf(out, "%.6f", s.min);
  out += ",\"max\":";
  appendf(out, "%.6f", s.max);
  out += ",\"p50\":";
  appendf(out, "%.6f", s.p50);
  out += ",\"p95\":";
  appendf(out, "%.6f", s.p95);
  out += ",\"p99\":";
  appendf(out, "%.6f", s.p99);
  out += "}";
}

}  // namespace

std::string report_json(Protocol protocol, const Scenario& scenario, const RunResult& result,
                        bool include_trace) {
  const recovery::RecoveryStats& recovery = result.recovery;
  const LatencySummary& latency = result.latency;
  std::string out = "{\n";
  out += "\"protocol\":\"" + obs::json_escape(protocol_name(protocol)) + "\",\n";
  out += "\"seed\":";
  append_u64(out, scenario.seed);
  out += ",\n\"replicas\":";
  append_u64(out, scenario.replica_dcs.size());
  out += ",\n\"clients\":";
  append_u64(out, scenario.client_dcs.size());
  out += ",\n\"rps_per_client\":";
  appendf(out, "%.3f", scenario.rps);
  out += ",\n\"warmup_ms\":";
  appendf(out, "%.3f", scenario.warmup.millis());
  out += ",\n\"measure_ms\":";
  appendf(out, "%.3f", scenario.measure.millis());
  out += ",\n\"submitted\":";
  append_u64(out, result.submitted);
  out += ",\n\"committed\":";
  append_u64(out, result.committed);
  out += ",\n\"throughput_rps\":";
  appendf(out, "%.3f", result.throughput_rps());
  out += ",\n\"fast_path\":";
  append_u64(out, result.fast_path);
  out += ",\n\"slow_path\":";
  append_u64(out, result.slow_path);
  out += ",\n\"packets_sent\":";
  append_u64(out, result.packets_sent);
  out += ",\n\"bytes_sent\":";
  append_u64(out, result.bytes_sent);
  out += ",\n\"recovery\":{\"restarts\":";
  append_u64(out, recovery.restarts);
  out += ",\"persisted_records\":";
  append_u64(out, recovery.persisted_records);
  out += ",\"persisted_bytes\":";
  append_u64(out, recovery.persisted_bytes);
  out += ",\"replayed_records\":";
  append_u64(out, recovery.replayed_records);
  out += ",\"replayed_bytes\":";
  append_u64(out, recovery.replayed_bytes);
  out += ",\"catchup_installs\":";
  append_u64(out, recovery.catchup_installs);
  out += ",\"catchup_bytes\":";
  append_u64(out, recovery.catchup_bytes);
  out += ",\"rejoin_ns_total\":";
  append_i64(out, recovery.rejoin_ns_total);
  out += ",\"downtime_ns\":";
  append_i64(out, result.recovery_downtime_ns);
  out += "}";
  out += ",\n\"latency\":{\"commit_ms\":";
  append_latency_stats(out, latency.commit_ms);
  out += ",\"exec_ms\":";
  append_latency_stats(out, latency.exec_ms);
  out += ",\"tracked\":";
  append_u64(out, latency.tracked);
  out += ",\"committed\":";
  append_u64(out, latency.committed);
  out += "}";
  if (result.metrics != nullptr) {
    out += ",\n\"metrics\":" + obs::metrics_to_json(*result.metrics);
  }
  if (const obs::TraceRecorder* trace = result.trace.get(); trace != nullptr) {
    out += ",\n\"trace_events\":";
    append_u64(out, trace->total_recorded());
    if (include_trace) {
      out += ",\n\"trace\":" + obs::trace_to_json(*trace);
    }
  }
  if (const obs::SpanStore* spans = result.spans.get(); spans != nullptr) {
    out += ",\n\"spans_recorded\":";
    append_u64(out, spans->spans().size());
    out += ",\n\"span_edges_recorded\":";
    append_u64(out, spans->edges().size());
    out += ",\n\"spans_dropped\":";
    append_u64(out, spans->dropped_spans());
    out += ",\n\"span_edges_dropped\":";
    append_u64(out, spans->dropped_edges());
    out += ",\n\"critical_paths\":";
    append_u64(out, result.critical_paths.size());
  }
  if (const obs::PredictionAudit* predict = result.predict.get(); predict != nullptr) {
    // Aggregates only; the per-decision rows are obs::decisions_to_csv's.
    out += ",\n\"predict\":{\"decisions\":";
    append_u64(out, predict->decisions());
    out += ",\"reconciled\":";
    append_u64(out, predict->reconciled());
    out += ",\"pending\":";
    append_u64(out, predict->pending());
    out += ",\"dropped\":";
    append_u64(out, predict->dropped());
    out += ",\"fast_path\":";
    append_u64(out, predict->fast_path());
    out += ",\"slow_path\":";
    append_u64(out, predict->slow_path());
    out += ",\"dm_commits\":";
    append_u64(out, predict->dm_commits());
    out += ",\"failovers\":";
    append_u64(out, predict->failovers());
    out += ",\"adaptive_overrides\":";
    append_u64(out, predict->adaptive_overrides());
    out += ",\"error_samples\":";
    append_u64(out, predict->error_samples());
    out += ",\"error_abs_sum_ns\":";
    append_i64(out, predict->error_abs_sum_ns());
    out += ",\"regret_samples\":";
    append_u64(out, predict->regret_samples());
    out += ",\"regret_sum_ns\":";
    append_i64(out, predict->regret_sum_ns());
    out += ",\"regret_max_ns\":";
    append_i64(out, predict->regret_max_ns());
    out += "}";
    out += ",\n\"calibration\":{\"series\":";
    append_u64(out, result.calibration.size());
    std::uint64_t samples = 0;
    std::uint64_t covered = 0;
    for (const obs::CalibrationRow& row : result.calibration) {
      samples += row.samples;
      covered += row.covered;
    }
    out += ",\"samples\":";
    append_u64(out, samples);
    out += ",\"covered\":";
    append_u64(out, covered);
    out += "}";
  }
  if (result.timeseries != nullptr) {
    out += ",\n\"timeline\":{\"interval_ms\":";
    appendf(out, "%.3f", scenario.timeseries_interval.millis());
    out += ",\"series\":";
    obs::append_timeseries_json(out, *result.timeseries);
    out += "}";
    out += ",\n\"slo\":";
    obs::append_slo_json(out, result.slo);
  }
  out += "\n}\n";
  return out;
}

}  // namespace domino::harness

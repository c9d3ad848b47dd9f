#include "obs/slo.h"

#include <algorithm>
#include <optional>

#include "obs/json.h"

namespace domino::obs {
namespace {

/// Per-window value of a metric: histogram p95, or counter rate in
/// events/second. nullopt when the metric was never sampled, or when a
/// histogram window recorded nothing (no latency data != zero latency).
std::optional<double> window_value(const Timeseries& ts, const std::string& metric,
                                   std::size_t w) {
  if (const auto* h = ts.find_histogram(metric); h != nullptr) {
    const WindowHistogram wh =
        w < h->windows.size() ? h->windows[w] : WindowHistogram{};
    if (wh.count == 0) return std::nullopt;
    return static_cast<double>(wh.p95);
  }
  if (const auto* c = ts.find_counter(metric); c != nullptr) {
    const double delta =
        w < c->deltas.size() ? static_cast<double>(c->deltas[w]) : 0.0;
    return delta / ts.windows()[w].length().seconds();
  }
  return std::nullopt;
}

bool metric_is_rate(const Timeseries& ts, const std::string& metric) {
  return ts.find_histogram(metric) == nullptr && ts.find_counter(metric) != nullptr;
}

SteadyStateResult evaluate_steady(const Timeseries& ts, const SloConfig& cfg,
                                  TimePoint until, const FaultInstant& fault,
                                  double baseline, bool has_baseline, bool is_rate) {
  SteadyStateResult r;
  r.fault = fault;
  r.baseline = baseline;
  if (!has_baseline || cfg.steady_windows == 0) return r;

  const auto in_tolerance = [&](double v) {
    // Direction-aware: improvement over baseline is always steady.
    return is_rate ? v >= baseline * (1.0 - cfg.steady_tolerance)
                   : v <= baseline * (1.0 + cfg.steady_tolerance);
  };

  const auto& windows = ts.windows();
  std::size_t run = 0;
  std::size_t run_start = 0;
  double run_start_value = 0.0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].end > until) break;
    if (windows[w].start < fault.at) continue;  // straddling windows can't settle
    const auto v = window_value(ts, cfg.steady_metric, w);
    if (!v.has_value() || !in_tolerance(*v)) {
      run = 0;
      continue;
    }
    if (run == 0) {
      run_start = w;
      run_start_value = *v;
    }
    ++run;
    if (run == cfg.steady_windows) {
      r.reached = true;
      r.settle_window = run_start;
      r.settled_value = run_start_value;
      r.time_to_steady = windows[w].end - fault.at;
      return r;
    }
  }
  return r;
}

}  // namespace

SloReport evaluate_slo(const Timeseries& ts, const SloConfig& config,
                       const std::vector<FaultInstant>& faults, TimePoint until) {
  SloReport report;
  report.steady_metric = config.steady_metric;
  report.steady_tolerance = config.steady_tolerance;
  report.steady_windows = config.steady_windows;

  if (config.steady_metric.empty() || faults.empty()) return report;

  // Baseline: mean per-window value over windows fully before the earliest
  // fault — the clean running state every fault is measured against.
  TimePoint first_fault = TimePoint::max();
  for (const FaultInstant& f : faults) first_fault = std::min(first_fault, f.at);
  const bool is_rate = metric_is_rate(ts, config.steady_metric);
  double baseline_sum = 0.0;
  std::size_t baseline_n = 0;
  const auto& windows = ts.windows();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].end > first_fault || windows[w].end > until) break;
    const auto v = window_value(ts, config.steady_metric, w);
    if (!v.has_value()) continue;
    baseline_sum += *v;
    ++baseline_n;
  }
  const bool has_baseline = baseline_n > 0;
  const double baseline =
      has_baseline ? baseline_sum / static_cast<double>(baseline_n) : 0.0;

  report.steady.reserve(faults.size());
  for (const FaultInstant& f : faults) {
    report.steady.push_back(
        evaluate_steady(ts, config, until, f, baseline, has_baseline, is_rate));
  }
  return report;
}

void publish_slo_metrics(const SloReport& report, MetricsRegistry& registry) {
  if (report.steady.empty()) return;
  auto& reached = registry.counter("slo.steady.reached");
  auto& unreached = registry.counter("slo.steady.unreached");
  auto& tts = registry.histogram("slo.steady.time_to_steady_ns");
  for (const auto& s : report.steady) {
    if (s.reached) {
      reached.inc();
      tts.record(s.time_to_steady);
    } else {
      unreached.inc();
    }
  }
}

void append_slo_json(std::string& out, const SloReport& report) {
  appendf(out, "{\"steady_metric\":\"%s\",\"steady_tolerance\":%.6g",
          json_escape(report.steady_metric).c_str(), report.steady_tolerance);
  appendf(out, ",\"steady_windows\":%llu",
          static_cast<unsigned long long>(report.steady_windows));
  out += ",\"steady_state\":[";
  bool first = true;
  for (const auto& s : report.steady) {
    if (!first) out += ',';
    first = false;
    appendf(out, "{\"fault_ns\":%lld,\"fault_kind\":\"%s\",\"node\":\"%s\"",
            static_cast<long long>(s.fault.at.nanos()),
            json_escape(s.fault.kind).c_str(), node_str(s.fault.node).c_str());
    appendf(out, ",\"reached\":%s,\"time_to_steady_ns\":%lld",
            s.reached ? "true" : "false",
            static_cast<long long>(s.time_to_steady.nanos()));
    appendf(out, ",\"settle_window\":%llu,\"baseline\":%.6g,\"settled_value\":%.6g}",
            static_cast<unsigned long long>(s.settle_window), s.baseline,
            s.settled_value);
  }
  out += "]}";
}

}  // namespace domino::obs

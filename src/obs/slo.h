// Steady-state detection over a Timeseries.
//
// The detector is a pure function of the frame stream: for each fault
// instant the harness hands it, evaluate_slo() finds the first window after
// which K consecutive windows sit within tolerance of the pre-fault
// baseline (time-to-steady-state, the recovery headline number).
// Everything is integer window arithmetic over already-sampled data, so
// results are deterministic whenever the timeline is.
//
// Layering: obs cannot see net/fault.h (net depends on obs), so fault
// instants arrive as plain FaultInstant records; the harness converts its
// FaultSchedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace domino::obs {

/// A moment the steady-state detector should measure recovery from
/// (crash, restart, partition heal, ...). `kind` is a display label.
struct FaultInstant {
  TimePoint at;
  std::string kind;
  NodeId node;  // invalid for link-level events
};

struct SteadyStateResult {
  FaultInstant fault;
  bool reached = false;
  /// fault.at -> end of the K-th consecutive in-tolerance window.
  Duration time_to_steady = Duration::zero();
  std::size_t settle_window = 0;  // global index of the first settled window
  double baseline = 0.0;          // mean pre-fault per-window value
  double settled_value = 0.0;     // value in the settle window
};

struct SloConfig {
  /// Steady-state detector: the per-window value of `steady_metric`
  /// (histogram p95, or counter rate in events/second) must sit within
  /// `steady_tolerance` of the pre-fault baseline for
  /// `steady_windows` consecutive windows. Tolerance is direction-aware:
  /// an improvement (lower latency, higher rate) is always in tolerance.
  std::string steady_metric = "client.commit_latency_ns";
  double steady_tolerance = 0.25;
  std::size_t steady_windows = 3;
};

struct SloReport {
  std::vector<SteadyStateResult> steady;
  std::string steady_metric;
  double steady_tolerance = 0.0;
  std::size_t steady_windows = 0;
};

/// Evaluate steady state over the timeline, one result per fault in the
/// order given. Windows ending after `until` are ignored: the harness
/// passes the end of the load window, so drained-load windows can't
/// masquerade as (or prevent) steady state. A steady_metric the timeline
/// never sampled settles no fault (reported, not an error).
[[nodiscard]] SloReport evaluate_slo(const Timeseries& ts, const SloConfig& config,
                                     const std::vector<FaultInstant>& faults,
                                     TimePoint until = TimePoint::max());

/// Surface the report as slo.* metrics (a steady-state reached/unreached
/// pair and a time-to-steady histogram) so existing exports and report
/// summaries pick it up with no new plumbing.
void publish_slo_metrics(const SloReport& report, MetricsRegistry& registry);

/// Append {"steady_metric":...,"steady_state":[...]} — fixed keys only.
void append_slo_json(std::string& out, const SloReport& report);

}  // namespace domino::obs

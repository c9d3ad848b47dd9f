// Windowed telemetry: deterministic per-window snapshots of a
// MetricsRegistry, sampled on virtual time.
//
// A Timeseries turns the registry's end-of-run aggregates into a frame
// stream: each sample() call closes one window and appends, per metric,
// the *delta* since the previous sample — counter increments, gauge last
// values, and the exact distribution of histogram values recorded inside
// the window (the bucket-wise difference Histogram::since, so windowed
// percentiles carry the same <= 12.5% bucket error as lifetime ones).
//
// Design constraints:
//   - Determinism: sampling happens on the simulator's virtual-time queue
//     and only *reads* metrics, so enabling it never perturbs protocol
//     behaviour; series iterate in metric-name order and exports use fixed
//     printf conversions, so same-seed runs export byte-identical
//     timelines.
//   - Fixed capacity: at most `max_windows` windows are retained; further
//     samples are counted in dropped_windows(), never silently discarded.
//   - Late registration: a metric that first appears at window w gets w
//     zero-filled leading entries, so every series has one entry per
//     window.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace domino::obs {

/// One window's view of one histogram: headline stats of the delta
/// distribution, computed exactly at sampling time from the bucket delta.
struct WindowHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

class Timeseries {
 public:
  static constexpr std::size_t kDefaultMaxWindows = 4096;

  explicit Timeseries(std::size_t max_windows = kDefaultMaxWindows)
      : max_windows_(max_windows) {}

  /// Close the window (previous sample time, now] and record every
  /// registered metric's delta. Samples at or before the previous sample
  /// instant are ignored (guards the end-of-run flush against a periodic
  /// tick at the same instant). The first window starts at the epoch.
  void sample(const MetricsRegistry& registry, TimePoint now);

  struct Window {
    TimePoint start;
    TimePoint end;
    [[nodiscard]] Duration length() const { return end - start; }
  };

  /// Per-series storage. `prev` members carry the metric as of the previous
  /// sample; exports only read the per-window vectors.
  struct CounterSeries {
    std::vector<std::uint64_t> deltas;  // one per window
    std::uint64_t prev = 0;
  };
  struct GaugeSeries {
    std::vector<std::int64_t> values;  // last value per window
  };
  struct HistogramSeries {
    std::vector<WindowHistogram> windows;
    Histogram prev;
  };
  using CounterMap = std::map<std::string, CounterSeries, std::less<>>;
  using GaugeMap = std::map<std::string, GaugeSeries, std::less<>>;
  using HistogramMap = std::map<std::string, HistogramSeries, std::less<>>;

  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }
  [[nodiscard]] std::size_t window_count() const { return windows_.size(); }
  [[nodiscard]] std::uint64_t dropped_windows() const { return dropped_windows_; }
  [[nodiscard]] std::size_t max_windows() const { return max_windows_; }

  [[nodiscard]] const CounterMap& counters() const { return counters_; }
  [[nodiscard]] const GaugeMap& gauges() const { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const { return histograms_; }

  [[nodiscard]] const CounterSeries* find_counter(std::string_view name) const;
  [[nodiscard]] const HistogramSeries* find_histogram(std::string_view name) const;

 private:
  std::size_t max_windows_;
  std::vector<Window> windows_;
  std::uint64_t dropped_windows_ = 0;
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
};

/// One row per scalar, window-major:
///   window,start_ns,end_ns,kind,name,field,value
/// Counters emit `delta`, gauges `value`; histograms emit `count` always
/// and mean/p50/p95/p99 only for non-empty windows. Byte-stable for a
/// given timeline.
[[nodiscard]] std::string timeseries_to_csv(const Timeseries& ts);

/// Append the timeline as a JSON object:
///   {"windows":N,"dropped_windows":D,"window_end_ms":[...],
///    "metrics":{name:{"kind":...,...series arrays...}}}
/// The "metrics" member has data-dependent keys (one per metric name).
void append_timeseries_json(std::string& out, const Timeseries& ts);

}  // namespace domino::obs

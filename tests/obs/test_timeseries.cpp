// Windowed-telemetry engine: histogram-difference known answers, padding for
// late-registered metrics, capacity accounting, and byte-stable exports.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace domino::obs {
namespace {

TimePoint at_ms(std::int64_t v) { return TimePoint::epoch() + milliseconds(v); }

TEST(HistogramDelta, RecoversExactlyTheWindowSamples) {
  Histogram h;
  h.record(10);
  h.record(20);
  const Histogram before = h;
  h.record(100);
  h.record(200);
  h.record(300);
  const Histogram d = h.since(before);

  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.sum(), 600.0);
  EXPECT_DOUBLE_EQ(d.mean(), 200.0);
  // Nearest-rank over {100, 200, 300}: p50 -> 200's bucket upper bound.
  // 200 lives in bucket [192, 207]; the lifetime max (300) doesn't clamp it.
  EXPECT_EQ(d.percentile(50), 207);
  // p95/p99 -> 300's bucket [288, 319], clamped to the recorded max 300.
  EXPECT_EQ(d.percentile(95), 300);
  EXPECT_EQ(d.percentile(99), 300);
}

TEST(HistogramDelta, EmptyWindowIsZero) {
  Histogram h;
  h.record(42);
  const Histogram d = h.since(h);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.percentile(99), 0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(Timeseries, WindowedDeltasKnownAnswer) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  auto& c = reg.counter("ops");
  auto& g = reg.gauge("depth");
  Timeseries ts;

  h.record(5);
  c.inc(3);
  g.set(7);
  ts.sample(reg, at_ms(1));

  h.record(1000);
  h.record(1000);
  c.inc(2);
  ts.sample(reg, at_ms(2));

  ASSERT_EQ(ts.window_count(), 2u);
  EXPECT_EQ(ts.windows()[0].start, TimePoint::epoch());
  EXPECT_EQ(ts.windows()[0].end, at_ms(1));
  EXPECT_EQ(ts.windows()[1].start, at_ms(1));

  const auto* ops = ts.find_counter("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->deltas.size(), 2u);
  EXPECT_EQ(ops->deltas[0], 3u);  // delta, not cumulative
  EXPECT_EQ(ops->deltas[1], 2u);

  const auto& depth = ts.gauges().at("depth");
  EXPECT_EQ(depth.values[0], 7);
  EXPECT_EQ(depth.values[1], 7);  // last value carries over

  const auto* lat = ts.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->windows.size(), 2u);
  EXPECT_EQ(lat->windows[0].count, 1u);
  EXPECT_EQ(lat->windows[0].p50, 5);  // values < 8 are exact
  EXPECT_EQ(lat->windows[1].count, 2u);
  // Both window-1 values are 1000; lifetime max clamps the bucket bound.
  EXPECT_EQ(lat->windows[1].p50, 1000);
  EXPECT_EQ(lat->windows[1].p99, 1000);
  EXPECT_DOUBLE_EQ(lat->windows[1].sum, 2000.0);
}

TEST(Timeseries, LateRegisteredMetricIsZeroPadded) {
  MetricsRegistry reg;
  reg.counter("early").inc();
  Timeseries ts;
  ts.sample(reg, at_ms(1));
  ts.sample(reg, at_ms(2));

  reg.counter("late").inc(9);
  reg.histogram("late_h").record(4);
  ts.sample(reg, at_ms(3));

  const auto* late = ts.find_counter("late");
  ASSERT_NE(late, nullptr);
  ASSERT_EQ(late->deltas.size(), 3u);
  EXPECT_EQ(late->deltas[0], 0u);
  EXPECT_EQ(late->deltas[1], 0u);
  EXPECT_EQ(late->deltas[2], 9u);

  const auto* late_h = ts.find_histogram("late_h");
  ASSERT_NE(late_h, nullptr);
  ASSERT_EQ(late_h->windows.size(), 3u);
  EXPECT_EQ(late_h->windows[0].count, 0u);
  EXPECT_EQ(late_h->windows[2].count, 1u);
}

TEST(Timeseries, CapacityIsBoundedAndCounted) {
  MetricsRegistry reg;
  auto& c = reg.counter("ops");
  Timeseries ts(/*max_windows=*/2);
  for (int i = 1; i <= 5; ++i) {
    c.inc();
    ts.sample(reg, at_ms(i));
  }
  EXPECT_EQ(ts.window_count(), 2u);
  EXPECT_EQ(ts.dropped_windows(), 3u);
}

TEST(Timeseries, SampleAtSameInstantIsIgnored) {
  MetricsRegistry reg;
  reg.counter("ops").inc();
  Timeseries ts;
  ts.sample(reg, at_ms(1));
  ts.sample(reg, at_ms(1));  // end-of-run flush landing on a periodic tick
  EXPECT_EQ(ts.window_count(), 1u);
  EXPECT_EQ(ts.dropped_windows(), 0u);
}

Timeseries make_timeline() {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  auto& c = reg.counter("ops");
  Timeseries ts;
  for (int w = 1; w <= 3; ++w) {
    h.record(100 * w);
    c.inc(static_cast<std::uint64_t>(w));
    ts.sample(reg, at_ms(w));
  }
  return ts;
}

TEST(TimeseriesExport, CsvAndJsonAreByteStable) {
  const Timeseries a = make_timeline();
  const Timeseries b = make_timeline();
  EXPECT_EQ(timeseries_to_csv(a), timeseries_to_csv(b));

  std::string ja, jb;
  append_timeseries_json(ja, a);
  append_timeseries_json(jb, b);
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"windows\":3"), std::string::npos);
  EXPECT_NE(ja.find("\"lat\""), std::string::npos);
}

TEST(TimeseriesExport, CsvHasOneRowPerCounterPerWindow) {
  const Timeseries ts = make_timeline();
  const std::string csv = timeseries_to_csv(ts);
  EXPECT_NE(csv.find("0,0,1000000,counter,ops,delta,1\n"), std::string::npos);
  EXPECT_NE(csv.find("1,1000000,2000000,counter,ops,delta,2\n"), std::string::npos);
  EXPECT_NE(csv.find("2,2000000,3000000,counter,ops,delta,3\n"), std::string::npos);
}

}  // namespace
}  // namespace domino::obs

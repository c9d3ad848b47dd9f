// SLO engine: steady-state detection against a pre-fault baseline, and the
// slo.* metric surface.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace domino::obs {
namespace {

TimePoint at_ms(std::int64_t v) { return TimePoint::epoch() + milliseconds(v); }

// Ten 100ms windows of one latency histogram ("lat"):
//   windows 0..4: lat 500   windows 5..7: lat 2000   windows 8..9: lat 500
struct Fixture {
  MetricsRegistry reg;
  Timeseries ts;

  Fixture() {
    auto& h = reg.histogram("lat");
    for (int w = 0; w < 10; ++w) {
      const std::int64_t v = (w >= 5 && w <= 7) ? 2000 : 500;
      for (int i = 0; i < 10; ++i) h.record(v);
      ts.sample(reg, at_ms(100 * (w + 1)));
    }
  }
};

TEST(SloSteadyState, LatencyRecoversAfterFault) {
  Fixture f;
  SloConfig cfg;
  cfg.steady_metric = "lat";
  cfg.steady_tolerance = 0.25;
  cfg.steady_windows = 2;

  const std::vector<FaultInstant> faults = {{at_ms(500), "crash", NodeId{1}}};
  const SloReport rep = evaluate_slo(f.ts, cfg, faults);
  ASSERT_EQ(rep.steady.size(), 1u);
  const SteadyStateResult& s = rep.steady[0];
  EXPECT_TRUE(s.reached);
  // Baseline: windows 0..4 (all pre-fault). Windows 5..7 are out of
  // tolerance; 8 and 9 settle, so steady is declared at window 9's end.
  EXPECT_EQ(s.settle_window, 8u);
  EXPECT_EQ(s.time_to_steady.nanos(), (at_ms(1000) - at_ms(500)).nanos());
  EXPECT_GT(s.baseline, 0.0);
}

TEST(SloSteadyState, NeverRecoversWhenDegradationPersists) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  Timeseries ts;
  for (int w = 0; w < 10; ++w) {
    const std::int64_t v = w < 5 ? 500 : 5000;  // degraded forever after
    for (int i = 0; i < 10; ++i) h.record(v);
    ts.sample(reg, at_ms(100 * (w + 1)));
  }
  SloConfig cfg;
  cfg.steady_metric = "lat";
  cfg.steady_windows = 2;
  const SloReport rep =
      evaluate_slo(ts, cfg, {{at_ms(500), "degrade_start", NodeId::invalid()}});
  ASSERT_EQ(rep.steady.size(), 1u);
  EXPECT_FALSE(rep.steady[0].reached);
}

TEST(SloSteadyState, ImprovementCountsAsSteady) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  Timeseries ts;
  for (int w = 0; w < 6; ++w) {
    const std::int64_t v = w < 3 ? 1000 : 100;  // faster after the "fault"
    for (int i = 0; i < 10; ++i) h.record(v);
    ts.sample(reg, at_ms(100 * (w + 1)));
  }
  SloConfig cfg;
  cfg.steady_metric = "lat";
  cfg.steady_windows = 2;
  const SloReport rep =
      evaluate_slo(ts, cfg, {{at_ms(300), "route_change", NodeId::invalid()}});
  EXPECT_TRUE(rep.steady[0].reached);
  EXPECT_EQ(rep.steady[0].settle_window, 3u);
}

TEST(SloSteadyState, EvaluateUntilCutsOffDrainedWindows) {
  Fixture f;
  SloConfig cfg;
  cfg.steady_metric = "lat";
  cfg.steady_windows = 2;
  // Evaluated until 800 ms: settle windows 8..9 are out of scope.
  const SloReport rep =
      evaluate_slo(f.ts, cfg, {{at_ms(500), "crash", NodeId{1}}}, at_ms(800));
  EXPECT_FALSE(rep.steady[0].reached);
}

TEST(SloSteadyState, RateMetricUsesFloorTolerance) {
  MetricsRegistry reg;
  auto& c = reg.counter("ops");
  Timeseries ts;
  // 500/s baseline, a two-window dip to 100/s, then recovery.
  const std::uint64_t deltas[8] = {50, 50, 50, 10, 10, 50, 50, 50};
  for (int w = 0; w < 8; ++w) {
    c.inc(deltas[w]);
    ts.sample(reg, at_ms(100 * (w + 1)));
  }
  SloConfig cfg;
  cfg.steady_metric = "ops";
  cfg.steady_tolerance = 0.25;
  cfg.steady_windows = 2;
  const SloReport rep = evaluate_slo(ts, cfg, {{at_ms(300), "crash", NodeId{2}}});
  ASSERT_EQ(rep.steady.size(), 1u);
  EXPECT_TRUE(rep.steady[0].reached);
  EXPECT_EQ(rep.steady[0].settle_window, 5u);
  EXPECT_DOUBLE_EQ(rep.steady[0].baseline, 500.0);
}

TEST(SloMetrics, PublishSurfacesRuleAndSteadyCounters) {
  Fixture f;
  SloConfig cfg;
  cfg.steady_metric = "lat";
  cfg.steady_windows = 2;
  const SloReport rep = evaluate_slo(f.ts, cfg, {{at_ms(500), "crash", NodeId{1}}});

  MetricsRegistry out;
  publish_slo_metrics(rep, out);
  const auto* reached = out.find_counter("slo.steady.reached");
  ASSERT_NE(reached, nullptr);
  EXPECT_EQ(reached->value(), 1u);
  const auto* tts = out.find_histogram("slo.steady.time_to_steady_ns");
  ASSERT_NE(tts, nullptr);
  EXPECT_EQ(tts->count(), 1u);
}

TEST(SloExport, JsonIsByteStableAndCarriesBothBlocks) {
  Fixture f;
  SloConfig cfg;
  cfg.steady_metric = "lat";
  const std::vector<FaultInstant> faults = {{at_ms(500), "crash", NodeId{1}}};
  const SloReport a = evaluate_slo(f.ts, cfg, faults);
  const SloReport b = evaluate_slo(f.ts, cfg, faults);

  std::string ja, jb;
  append_slo_json(ja, a);
  append_slo_json(jb, b);
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"steady_state\":["), std::string::npos);
  EXPECT_NE(ja.find("\"fault_kind\":\"crash\""), std::string::npos);
}

}  // namespace
}  // namespace domino::obs

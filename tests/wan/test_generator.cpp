#include "wan/generator.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace domino::wan {
namespace {

TEST(WanTraceGenerator, SameSeedIsByteIdentical) {
  const GeneratorConfig cfg = drifting_config(milliseconds(33), 7);
  const auto a = TraceGenerator(cfg).generate();
  const auto b = TraceGenerator(cfg).generate();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);

  GeneratorConfig other = cfg;
  other.seed = 8;
  EXPECT_NE(TraceGenerator(other).generate(), a);
}

TEST(WanTraceGenerator, SampleCadenceAndFloor) {
  GeneratorConfig cfg = stationary_config(milliseconds(40), 1);
  cfg.duration = seconds(2);
  cfg.sample_interval = milliseconds(10);
  cfg.diurnal_amplitude = Duration::zero();  // keep the floor exact
  const auto samples = TraceGenerator(cfg).generate();
  ASSERT_EQ(samples.size(), 200u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].at, TimePoint::epoch() + milliseconds(10) * static_cast<int>(i));
    // Delays never dip below the propagation floor (jitter is additive).
    EXPECT_GE(samples[i].owd, milliseconds(40));
  }
}

TEST(WanTraceGenerator, StationaryRegimeIsStable) {
  GeneratorConfig cfg = stationary_config(milliseconds(33), 3);
  cfg.duration = seconds(30);
  const auto samples = TraceGenerator(cfg).generate();
  StatAccumulator s;
  for (const TraceSample& x : samples) s.add(x.owd);
  // The Section 3 observation: p5-p95 spread is small vs the floor.
  EXPECT_LT(s.percentile(95) - s.percentile(5), 2.0);
  EXPECT_GE(s.min(), 32.5);  // floor minus the 0.3 ms preset wander
}

TEST(WanTraceGenerator, RouteStepsShiftTheFloor) {
  GeneratorConfig cfg = stationary_config(milliseconds(30), 4);
  cfg.duration = seconds(10);
  cfg.diurnal_amplitude = Duration::zero();  // isolate the steps
  cfg.spike_prob = 0.0;
  cfg.route_steps = {{seconds(5), milliseconds(45)}};
  const auto samples = TraceGenerator(cfg).generate();
  for (const TraceSample& x : samples) {
    if (x.at < TimePoint::epoch() + seconds(5)) {
      EXPECT_GE(x.owd, milliseconds(30));
      EXPECT_LT(x.owd, milliseconds(40));
    } else {
      EXPECT_GE(x.owd, milliseconds(45));
    }
  }
}

TEST(WanTraceGenerator, DiurnalDriftMovesTheMedian) {
  GeneratorConfig cfg = stationary_config(milliseconds(50), 5);
  cfg.duration = seconds(40);
  cfg.diurnal_amplitude = milliseconds(10);
  cfg.diurnal_period = seconds(40);
  const auto samples = TraceGenerator(cfg).generate();
  // Quarter period (t=10 s) sits at +amplitude, three quarters at
  // -amplitude: compare windows around each.
  StatAccumulator up, down;
  for (const TraceSample& x : samples) {
    const double t = (x.at - TimePoint::epoch()).seconds();
    if (t >= 8 && t < 12) up.add(x.owd);
    if (t >= 28 && t < 32) down.add(x.owd);
  }
  EXPECT_GT(up.percentile(50), down.percentile(50) + 15.0);
}

TEST(WanTraceGenerator, CongestionEpochsRaiseDelays) {
  GeneratorConfig base = stationary_config(milliseconds(30), 6);
  base.duration = seconds(30);
  GeneratorConfig congested = base;
  congested.congestion_gap = seconds(3);
  congested.congestion_len = seconds(2);
  congested.congestion_extra = milliseconds(10);
  StatAccumulator quiet_s, cong_s;
  for (const TraceSample& x : TraceGenerator(base).generate()) quiet_s.add(x.owd);
  for (const TraceSample& x : TraceGenerator(congested).generate()) {
    cong_s.add(x.owd);
  }
  // Epochs cover a large fraction of the run, so the upper tail must rise
  // by about the queueing extra.
  EXPECT_GT(cong_s.percentile(90), quiet_s.percentile(90) + 5.0);
}

TEST(WanTraceGenerator, HeavyTailSpikesAppear) {
  GeneratorConfig cfg = stationary_config(milliseconds(20), 8);
  cfg.duration = seconds(60);
  cfg.spike_prob = 0.01;
  cfg.spike_mean = milliseconds(10);
  cfg.heavy_tail_prob = 0.5;
  cfg.heavy_tail_factor = 20.0;
  int big = 0;
  for (const TraceSample& x : TraceGenerator(cfg).generate()) {
    if (x.owd > milliseconds(80)) ++big;
  }
  // ~0.5% of 6000 samples get a 20x spike; a handful must clear 80 ms.
  EXPECT_GT(big, 3);
}

TEST(WanTraceGenerator, GenerateIntoRespectsTraceLimits) {
  GeneratorConfig cfg = stationary_config(milliseconds(10), 9);
  cfg.duration = seconds(1);
  cfg.sample_interval = milliseconds(10);
  TraceLimits limits;
  limits.max_rows = 50;  // 100 samples incoming
  DelayTrace trace(limits);
  EXPECT_THROW(TraceGenerator(cfg).generate_into(trace, "VA", "WA"), TraceError);
}

TEST(WanTraceGenerator, PresetsRoundTripThroughCsv) {
  GeneratorConfig cfg = drifting_config(milliseconds(33), 10);
  cfg.duration = seconds(5);
  DelayTrace trace;
  TraceGenerator(cfg).generate_into(trace, "VA", "WA");
  const DelayTrace back = DelayTrace::parse_csv(trace.to_csv());
  EXPECT_EQ(*back.samples("VA", "WA"), *trace.samples("VA", "WA"));
}

}  // namespace
}  // namespace domino::wan

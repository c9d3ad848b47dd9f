#include "harness/trace.h"

#include <gtest/gtest.h>

#include "wan/generator.h"

namespace domino::harness {
namespace {

// One direction of a quiet link: 30 s of 10 ms samples, no spikes.
wan::GeneratorConfig quiet(Duration base, std::uint64_t seed) {
  wan::GeneratorConfig c;
  c.base = base;
  c.seed = seed;
  c.spike_prob = 0.0;
  c.duration = seconds(30);
  return c;
}

// Pair two generated series into probe samples under `clock_offset`.
std::vector<ProbeSample> probes(const wan::GeneratorConfig& forward,
                                const wan::GeneratorConfig& reverse,
                                Duration clock_offset = Duration::zero()) {
  return probe_samples_from_wan(wan::TraceGenerator(forward).generate(),
                                wan::TraceGenerator(reverse).generate(), clock_offset);
}

// A quiet 67 ms RTT link split forward_share / (1 - forward_share).
std::vector<ProbeSample> quiet_link(double forward_share = 0.5,
                                    Duration clock_offset = Duration::zero()) {
  const Duration forward_base = scale(milliseconds(67), forward_share);
  return probes(quiet(forward_base, 1), quiet(milliseconds(67) - forward_base, 2),
                clock_offset);
}

wan::TraceSample at_ms(std::int64_t t, std::int64_t owd) {
  return {TimePoint::epoch() + milliseconds(t), milliseconds(owd)};
}

TEST(TraceGenerator, ProducesExpectedSampleCount) {
  wan::GeneratorConfig c = quiet(milliseconds(33), 1);
  c.sample_interval = milliseconds(10);
  c.duration = seconds(1);
  EXPECT_EQ(probes(c, c).size(), 100u);
}

TEST(TraceGenerator, RttNearNominal) {
  for (const auto& s : quiet_link()) {
    EXPECT_GE(s.rtt, milliseconds(67));
    EXPECT_LT(s.rtt, milliseconds(80));  // jitter is small vs the floor
  }
}

TEST(TraceGenerator, SymmetricPathHalfRttIsGoodOwd) {
  for (const auto& s : quiet_link()) {
    // forward share 0.5, no skew: measured OWD ~ rtt/2.
    EXPECT_NEAR(s.owd_measured.millis(), s.rtt.millis() / 2, 3.0);
  }
}

TEST(TraceGenerator, AsymmetryShiftsOwd) {
  const auto trace = quiet_link(0.7);
  double avg = 0;
  for (const auto& s : trace) avg += s.owd_measured.millis();
  avg /= static_cast<double>(trace.size());
  EXPECT_NEAR(avg, 67.0 * 0.7, 2.0);
}

TEST(TraceGenerator, ClockOffsetFoldsIntoMeasuredOwd) {
  for (const auto& s : quiet_link(0.5, milliseconds(500))) {
    EXPECT_GT(s.owd_measured, milliseconds(500));
  }
}

TEST(TraceGenerator, DeterministicPerSeed) {
  const auto a = quiet_link();
  const auto b = quiet_link();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[17].rtt, b[17].rtt);
  EXPECT_EQ(a[17].owd_measured, b[17].owd_measured);
}

TEST(ProbeSamplesFromWan, CoarserLaterReverseUsesFirstSampleUntilDataExists) {
  // Forward every 10 ms from 0; reverse every 50 ms from 25 ms.
  std::vector<wan::TraceSample> forward;
  for (std::int64_t t = 0; t < 100; t += 10) forward.push_back(at_ms(t, 10));
  const std::vector<wan::TraceSample> reverse = {at_ms(25, 1), at_ms(75, 2)};
  const auto trace = probe_samples_from_wan(forward, reverse);
  ASSERT_EQ(trace.size(), forward.size());
  for (const ProbeSample& s : trace) {
    const std::int64_t t = (s.sent_at - TimePoint::epoch()).nanos() / 1'000'000;
    // Before 75 ms the first reverse sample applies, also before 25 ms
    // when no reverse data exists yet; from 75 ms on, the second.
    EXPECT_EQ(s.rtt, milliseconds(t < 75 ? 11 : 12)) << "t=" << t;
    EXPECT_EQ(s.owd_measured, milliseconds(10));
  }
}

TEST(ProbeSamplesFromWan, ClockOffsetFoldsIntoOwdButNotRtt) {
  const auto trace =
      probe_samples_from_wan({at_ms(0, 10)}, {at_ms(0, 20)}, milliseconds(-600));
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].owd_measured, milliseconds(-590));
  EXPECT_EQ(trace[0].rtt, milliseconds(30));
}

TEST(ProbeSamplesFromWan, EmptySeriesThrows) {
  const std::vector<wan::TraceSample> one = {at_ms(0, 10)};
  EXPECT_THROW((void)probe_samples_from_wan({}, one), wan::TraceError);
  EXPECT_THROW((void)probe_samples_from_wan(one, {}), wan::TraceError);
}

TEST(Prediction, HighPercentilePredictsWell) {
  // Matches Figure 3's top-right region: p95 with a 1 s window on a stable
  // link predicts correctly ~95% of the time.
  const auto trace = quiet_link();
  const auto outcome =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_GT(outcome.correct_rate, 0.88);
  EXPECT_GT(outcome.evaluated, 1000u);
}

TEST(Prediction, LowPercentilePredictsPoorly) {
  // Figure 3's left side: low percentiles under-predict most arrivals.
  const auto trace = quiet_link();
  const auto p5 =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 5.0);
  const auto p95 =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_LT(p5.correct_rate + 0.3, p95.correct_rate);
}

TEST(Prediction, HalfRttFailsUnderAsymmetry) {
  // The Table 2 vs Table 3 effect: with disjoint forward/reverse paths the
  // half-RTT estimator mispredicts by roughly the asymmetry, while the
  // replica-timestamp estimator stays accurate.
  const auto trace = quiet_link(0.75);  // forward path carries 75% of the RTT
  const auto half =
      evaluate_predictions(trace, OwdEstimator::kHalfRtt, seconds(1), 95.0);
  const auto owd =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_LT(half.correct_rate, 0.2);
  EXPECT_GT(owd.correct_rate, 0.88);
  EXPECT_GT(half.p99_misprediction_ms, 10.0);  // ~67 * 0.25 ms systematic error
  EXPECT_LT(owd.p99_misprediction_ms, 8.0);
}

TEST(Prediction, HalfRttFailsUnderClockSkew) {
  const auto trace = quiet_link(0.5, milliseconds(30));
  const auto half =
      evaluate_predictions(trace, OwdEstimator::kHalfRtt, seconds(1), 95.0);
  const auto owd =
      evaluate_predictions(trace, OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  // Arrivals (in replica clock) are ~30 ms later than half-RTT predicts.
  EXPECT_LT(half.correct_rate, 0.1);
  EXPECT_GT(owd.correct_rate, 0.88);
}

TEST(Prediction, SpikesCauseBoundedMispredictions) {
  wan::GeneratorConfig forward = quiet(milliseconds_d(33.5), 1);
  forward.spike_prob = 0.01;
  forward.spike_mean = milliseconds(10);
  wan::GeneratorConfig reverse = forward;
  reverse.seed = 2;
  const auto outcome = evaluate_predictions(probes(forward, reverse),
                                            OwdEstimator::kReplicaTimestamp, seconds(1), 95.0);
  EXPECT_GT(outcome.correct_rate, 0.85);
  EXPECT_GT(outcome.p99_misprediction_ms, 0.0);
}

}  // namespace
}  // namespace domino::harness

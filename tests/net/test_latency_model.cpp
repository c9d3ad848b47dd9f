#include "net/latency_model.h"

#include <gtest/gtest.h>

#include "common/stats.h"

namespace domino::net {
namespace {

TEST(ConstantLatency, AlwaysBase) {
  ConstantLatency m(milliseconds(33));
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.sample(TimePoint::epoch(), rng), milliseconds(33));
  }
  EXPECT_EQ(m.base(TimePoint::epoch()), milliseconds(33));
}

TEST(JitterLatency, NeverBelowBase) {
  JitterParams p;
  JitterLatency m(milliseconds(40), p);
  Rng rng(2);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(m.sample(TimePoint::epoch(), rng), milliseconds(40));
  }
}

TEST(JitterLatency, JitterIsSmallRelativeToBase) {
  // Matches the paper's Section 3 observation: variance small vs the
  // propagation floor.
  JitterParams p;
  p.spike_prob = 0.0;
  JitterLatency m(milliseconds(40), p);
  Rng rng(3);
  StatAccumulator s;
  for (int i = 0; i < 10'000; ++i) s.add(m.sample(TimePoint::epoch(), rng));
  EXPECT_LT(s.percentile(95), 41.5);  // p95 jitter under 1.5 ms
  EXPECT_GE(s.min(), 40.0);
}

TEST(JitterLatency, SpikesAppearAtConfiguredRate) {
  JitterParams p;
  p.spike_prob = 0.01;
  p.spike_mean = milliseconds(50);
  JitterLatency m(milliseconds(10), p);
  Rng rng(4);
  int big = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (m.sample(TimePoint::epoch(), rng) > milliseconds(20)) ++big;
  }
  // Roughly 1% of samples spike (some spikes are small; allow slack).
  EXPECT_GT(big, n / 300);
  EXPECT_LT(big, n / 50);
}

}  // namespace
}  // namespace domino::net

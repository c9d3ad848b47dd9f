#include "common/window_estimator.h"

#include <gtest/gtest.h>

namespace domino {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint::epoch() + milliseconds(ms); }

TEST(WindowEstimator, EmptyReturnsNullopt) {
  WindowEstimator w(seconds(1));
  EXPECT_FALSE(w.percentile(at_ms(0), 95).has_value());
  EXPECT_TRUE(w.empty(at_ms(0)));
}

TEST(WindowEstimator, SingleSampleAnyPercentile) {
  WindowEstimator w(seconds(1));
  w.add(at_ms(0), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(0), 0), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(0), 50), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(0), 100), milliseconds(10));
}

TEST(WindowEstimator, NearestRankPercentiles) {
  WindowEstimator w(seconds(10));
  for (int i = 1; i <= 10; ++i) w.add(at_ms(i), milliseconds(i));
  // Nearest-rank: p50 of 10 samples -> 5th smallest.
  EXPECT_EQ(*w.percentile(at_ms(10), 50), milliseconds(5));
  EXPECT_EQ(*w.percentile(at_ms(10), 90), milliseconds(9));
  EXPECT_EQ(*w.percentile(at_ms(10), 100), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(10), 0), milliseconds(1));
}

TEST(WindowEstimator, EvictsOldSamples) {
  WindowEstimator w(milliseconds(100));
  w.add(at_ms(0), milliseconds(1));
  w.add(at_ms(50), milliseconds(2));
  w.add(at_ms(200), milliseconds(3));
  // At t=200 the window is [100, 200]; only samples 2? No: sample at 50 is
  // older than 100ms, sample at 200 remains; count should be 1.
  EXPECT_EQ(w.count(at_ms(200)), 1u);
  EXPECT_EQ(*w.percentile(at_ms(200), 95), milliseconds(3));
}

TEST(WindowEstimator, WindowBoundaryInclusive) {
  WindowEstimator w(milliseconds(100));
  w.add(at_ms(100), milliseconds(1));
  w.add(at_ms(200), milliseconds(2));
  // Cutoff at t=200 is exactly 100; the sample at 100 is still inside.
  EXPECT_EQ(w.count(at_ms(200)), 2u);
}

TEST(WindowEstimator, QueryLaterThanLastInsert) {
  WindowEstimator w(milliseconds(100));
  w.add(at_ms(0), milliseconds(5));
  // Querying far past the window finds nothing.
  EXPECT_FALSE(w.percentile(at_ms(500), 95).has_value());
  EXPECT_EQ(w.count(at_ms(500)), 0u);
}

TEST(WindowEstimator, P95PicksHighSample) {
  WindowEstimator w(seconds(10));
  for (int i = 0; i < 100; ++i) w.add(at_ms(i), milliseconds(10));
  w.add(at_ms(100), milliseconds(50));  // one outlier among 101
  EXPECT_EQ(*w.percentile(at_ms(100), 95), milliseconds(10));
  EXPECT_EQ(*w.percentile(at_ms(100), 100), milliseconds(50));
}

TEST(WindowEstimator, NegativeDurationsSupported) {
  // OWD measurements can be negative under clock skew.
  WindowEstimator w(seconds(1));
  w.add(at_ms(0), milliseconds(-5));
  w.add(at_ms(1), milliseconds(5));
  EXPECT_EQ(*w.percentile(at_ms(1), 0), milliseconds(-5));
  EXPECT_EQ(*w.percentile(at_ms(1), 100), milliseconds(5));
}

TEST(KthSmallest, BasicOrderStatistics) {
  std::vector<Duration> v{milliseconds(30), milliseconds(10), milliseconds(20)};
  EXPECT_EQ(kth_smallest(v, 1), milliseconds(10));
  EXPECT_EQ(kth_smallest(v, 2), milliseconds(20));
  EXPECT_EQ(kth_smallest(v, 3), milliseconds(30));
}

TEST(KthSmallest, OutOfRangeReturnsMax) {
  std::vector<Duration> v{milliseconds(1)};
  EXPECT_EQ(kth_smallest(v, 0), Duration::max());
  EXPECT_EQ(kth_smallest(v, 2), Duration::max());
  EXPECT_EQ(kth_smallest({}, 1), Duration::max());
}

}  // namespace
}  // namespace domino

#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace domino {
namespace {

TEST(StatAccumulator, BasicStats) {
  StatAccumulator s;
  for (int i = 1; i <= 100; ++i) s.add(milliseconds(i));
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(StatAccumulator, EmptyThrows) {
  StatAccumulator s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(StatAccumulator, AddDurationConvertsToMillis) {
  StatAccumulator s;
  s.add(milliseconds(25));
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
}

TEST(StatAccumulator, MergeCombines) {
  StatAccumulator a, b;
  a.add(milliseconds(1));
  b.add(milliseconds(3));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(StatAccumulator, StddevOfConstantIsZero) {
  StatAccumulator s;
  s.add(milliseconds(5));
  s.add(milliseconds(5));
  s.add(milliseconds(5));
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatAccumulator, StddevSample) {
  StatAccumulator s;
  s.add(milliseconds(2));
  s.add(milliseconds(4));
  s.add(milliseconds(4));
  s.add(milliseconds(4));
  s.add(milliseconds(5));
  s.add(milliseconds(5));
  s.add(milliseconds(7));
  s.add(milliseconds(9));
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(StatAccumulator, BoxSummaryOrdered) {
  StatAccumulator s;
  for (int i = 1; i <= 1000; ++i) s.add(milliseconds(i));
  const auto b = s.box_summary();
  EXPECT_LE(b.p5, b.p25);
  EXPECT_LE(b.p25, b.p50);
  EXPECT_LE(b.p50, b.p75);
  EXPECT_LE(b.p75, b.p95);
  EXPECT_DOUBLE_EQ(b.p50, 500.0);
}

TEST(StatAccumulator, SortedValuesAscending) {
  StatAccumulator s;
  s.add(milliseconds(3));
  s.add(milliseconds(1));
  s.add(milliseconds(2));
  const auto v = s.sorted_values();
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

/// The answers a plain sorted std::vector<double> of Duration::millis()
/// gives: nearest-rank percentiles.
class Reference {
 public:
  void add(Duration d) { values_.push_back(d.millis()); }
  void merge(const Reference& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  const std::vector<double>& sorted() {
    std::sort(values_.begin(), values_.end());
    return values_;
  }
  double percentile(double p) {
    const std::vector<double>& v = sorted();
    std::size_t rank = 0;
    if (p > 0.0) {
      rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
      if (rank > 0) --rank;
    }
    return v[rank];
  }

 private:
  std::vector<double> values_;
};

/// A latency-like sample: mostly [0, 2^32) ns, with negatives and spans of
/// 4.29 s and more mixed in, and exact repeats of a few values.
Duration random_sample(Rng& rng) {
  constexpr std::int64_t kNarrowEnd = std::int64_t{1} << 32;
  const std::uint64_t pick = rng.next_u64() % 20;
  if (pick == 0) return Duration{rng.uniform_i64(-seconds(3).nanos(), -1)};
  if (pick == 1) return Duration{rng.uniform_i64(kNarrowEnd, seconds(60).nanos())};
  if (pick == 2) return Duration{kNarrowEnd - 1 - static_cast<std::int64_t>(rng.next_u64() % 3)};
  if (pick == 3) return milliseconds(static_cast<std::int64_t>(rng.next_u64() % 8));
  return Duration{rng.uniform_i64(0, kNarrowEnd - 1)};
}

void expect_matches(const StatAccumulator& s, Reference& ref) {
  for (const double p : {0.0, 0.1, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(s.percentile(p), ref.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(s.min(), ref.sorted().front());
  EXPECT_EQ(s.max(), ref.sorted().back());
  EXPECT_EQ(s.sorted_values(), ref.sorted());
  const StatAccumulator::BoxSummary b = s.box_summary();
  EXPECT_EQ(b.p5, ref.percentile(5));
  EXPECT_EQ(b.p25, ref.percentile(25));
  EXPECT_EQ(b.p50, ref.percentile(50));
  EXPECT_EQ(b.p75, ref.percentile(75));
  EXPECT_EQ(b.p95, ref.percentile(95));
}

TEST(StatAccumulator, MatchesSortedMillisReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    StatAccumulator s;
    Reference ref;
    for (int i = 0; i < 2'000; ++i) {
      const Duration d = random_sample(rng);
      s.add(d);
      ref.add(d);
    }
    expect_matches(s, ref);
    // Adding after a query re-sorts before the next one.
    for (int i = 0; i < 300; ++i) {
      const Duration d = random_sample(rng);
      s.add(d);
      ref.add(d);
    }
    expect_matches(s, ref);
  }
}

TEST(StatAccumulator, MergeMatchesReference) {
  Rng rng(7);
  StatAccumulator a, b;
  Reference ra, rb;
  for (int i = 0; i < 1'500; ++i) {
    const Duration d = random_sample(rng);
    if (i % 3 == 0) {
      b.add(d);
      rb.add(d);
    } else {
      a.add(d);
      ra.add(d);
    }
  }
  (void)a.percentile(50);  // merging into a sorted accumulator
  a.merge(b);
  ra.merge(rb);
  EXPECT_EQ(a.count(), 1'500u);
  expect_matches(a, ra);
}

TEST(StatAccumulator, MeanIsExactNanosecondSum) {
  StatAccumulator s;
  s.add(Duration{-1'500'000});
  s.add(Duration{(std::int64_t{1} << 32) + 1'500'000});
  s.add(Duration{3});
  const std::int64_t sum = (std::int64_t{1} << 32) + 3;
  EXPECT_EQ(s.mean(), Duration{sum}.millis() / 3.0);
  EXPECT_EQ(s.min(), -1.5);
  EXPECT_EQ(s.max(), Duration{(std::int64_t{1} << 32) + 1'500'000}.millis());
  // The mean does not depend on whether a query sorted the samples.
  StatAccumulator t;
  t.add(Duration{3});
  t.add(Duration{(std::int64_t{1} << 32) + 1'500'000});
  t.add(Duration{-1'500'000});
  (void)t.median();
  EXPECT_EQ(t.mean(), s.mean());
}

TEST(StatAccumulator, NarrowBoundaryIsExact) {
  StatAccumulator s;
  constexpr std::int64_t kEnd = std::int64_t{1} << 32;
  s.add(Duration{kEnd});
  s.add(Duration{kEnd - 1});
  s.add(Duration{0});
  s.add(Duration{-1});
  EXPECT_EQ(s.sorted_values(), (std::vector<double>{Duration{-1}.millis(), 0.0,
                                                    Duration{kEnd - 1}.millis(),
                                                    Duration{kEnd}.millis()}));
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.percentile(75), Duration{kEnd - 1}.millis());
}

TEST(StatAccumulator, StddevIgnoresQueryHistory) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    StatAccumulator s;
    for (int i = 0; i < 2'000; ++i) s.add(random_sample(rng));
    const double before = s.stddev();
    (void)s.percentile(50);  // sorts the samples in place
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.stddev()), std::bit_cast<std::uint64_t>(before))
        << "seed " << seed;
  }
}

/// Every rank, min, max, mean, stddev and the sorted values of `frozen`
/// equal those of `thawed`, which holds the same samples uncoded.
void expect_same_answers(const StatAccumulator& frozen, const StatAccumulator& thawed) {
  ASSERT_EQ(frozen.count(), thawed.count());
  const auto n = static_cast<double>(thawed.count());
  for (std::size_t rank = 0; rank < thawed.count(); ++rank) {
    const double p = 100.0 * (static_cast<double>(rank) + 0.5) / n;  // selects `rank`
    ASSERT_EQ(frozen.percentile(p), thawed.percentile(p)) << "rank " << rank;
  }
  EXPECT_EQ(frozen.min(), thawed.min());
  EXPECT_EQ(frozen.max(), thawed.max());
  EXPECT_EQ(frozen.mean(), thawed.mean());
  EXPECT_EQ(frozen.stddev(), thawed.stddev());
  EXPECT_EQ(frozen.sorted_values(), thawed.sorted_values());
}

/// `narrow` samples in [0, 2^32) ns, deltas of every LEB128 width and exact
/// repeats, plus a few negatives and spans past 2^32 ns in the spill.
void add_mixed(StatAccumulator& s, Reference& ref, Rng& rng, std::size_t narrow) {
  constexpr std::int64_t kNarrowEnd = std::int64_t{1} << 32;
  const auto add = [&](Duration d) {
    s.add(d);
    ref.add(d);
  };
  for (std::size_t i = 0; i < narrow; ++i) {
    switch (rng.next_u64() % 4) {
      case 0: add(Duration{0}); break;
      case 1: add(Duration{kNarrowEnd - 1}); break;
      case 2: add(Duration{static_cast<std::int64_t>(rng.next_u64() % 300)}); break;
      default: add(Duration{rng.uniform_i64(0, kNarrowEnd - 1)}); break;
    }
  }
  for (int i = 0; i < 3; ++i) {
    add(Duration{rng.uniform_i64(-seconds(3).nanos(), -1)});
    add(Duration{rng.uniform_i64(kNarrowEnd, seconds(60).nanos())});
  }
}

TEST(StatAccumulator, FrozenRanksMatchThawed) {
  // One block of 64 samples is an anchor and 63 deltas: cover a lone
  // anchor, a block one short, exactly full and one over, and two blocks
  // plus one.
  for (const std::size_t narrow : {1u, 63u, 64u, 65u, 129u}) {
    Rng rng(narrow);
    StatAccumulator s;
    Reference ref;
    add_mixed(s, ref, rng, narrow);
    const StatAccumulator thawed = s;
    s.freeze();
    ASSERT_TRUE(s.frozen()) << narrow;
    expect_same_answers(s, thawed);
    expect_matches(s, ref);
  }
}

TEST(StatAccumulator, AddAfterFreezeThaws) {
  Rng rng(11);
  StatAccumulator s;
  Reference ref;
  add_mixed(s, ref, rng, 200);
  s.freeze();
  s.freeze();  // a second freeze keeps the coding
  ASSERT_TRUE(s.frozen());
  add_mixed(s, ref, rng, 70);
  EXPECT_FALSE(s.frozen());
  EXPECT_EQ(s.count(), 270u + 12u);
  expect_matches(s, ref);
  s.freeze();  // and the grown set codes again
  EXPECT_TRUE(s.frozen());
  expect_matches(s, ref);
}

TEST(StatAccumulator, MergeLeavesFrozenSourceFrozen) {
  Rng rng(13);
  StatAccumulator a, b;
  Reference ra, rb;
  add_mixed(a, ra, rng, 100);
  add_mixed(b, rb, rng, 150);
  b.freeze();
  a.merge(b);
  ra.merge(rb);
  EXPECT_TRUE(b.frozen());
  expect_matches(b, rb);
  expect_matches(a, ra);
  // A frozen destination decodes itself before taking the samples.
  StatAccumulator c = b;
  Reference rc = rb;
  c.merge(a);
  rc.merge(ra);
  EXPECT_FALSE(c.frozen());
  expect_matches(c, rc);
}

TEST(TimeSeries, BucketsByTime) {
  TimeSeries ts(seconds(1));
  ts.add(TimePoint::epoch() + milliseconds(100), milliseconds(1));
  ts.add(TimePoint::epoch() + milliseconds(900), milliseconds(3));
  ts.add(TimePoint::epoch() + milliseconds(1500), milliseconds(7));
  ASSERT_EQ(ts.bucket_count(), 2u);
  EXPECT_DOUBLE_EQ(ts.bucket(0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(ts.bucket(1).mean(), 7.0);
  EXPECT_EQ(ts.bucket_start(1), TimePoint::epoch() + seconds(1));
}

TEST(TimeSeries, IgnoresNegativeTimes) {
  TimeSeries ts(seconds(1));
  ts.add(TimePoint::epoch() - milliseconds(5), milliseconds(1));
  EXPECT_EQ(ts.bucket_count(), 0u);
}

}  // namespace
}  // namespace domino

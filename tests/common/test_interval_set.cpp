#include "common/interval_set.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace domino {
namespace {

TEST(IntervalSet, EmptyContainsNothing) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.first_gap(5), 5);
  EXPECT_FALSE(s.contiguous_end(0).has_value());
}

TEST(IntervalSet, SinglePoint) {
  IntervalSet s;
  s.insert(7);
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(6));
  EXPECT_FALSE(s.contains(8));
  EXPECT_EQ(s.cardinality(), 1u);
  EXPECT_EQ(s.first_gap(7), 8);
}

TEST(IntervalSet, CoalesceAdjacent) {
  IntervalSet s;
  s.insert(1, 3);
  s.insert(4, 6);  // adjacent -> one interval
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.covers(1, 6));
}

TEST(IntervalSet, CoalesceOverlapping) {
  IntervalSet s;
  s.insert(1, 5);
  s.insert(3, 10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.covers(1, 10));
  EXPECT_EQ(s.cardinality(), 10u);
}

TEST(IntervalSet, DisjointStaySeparate) {
  IntervalSet s;
  s.insert(1, 3);
  s.insert(10, 12);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_FALSE(s.contains(5));
  EXPECT_FALSE(s.covers(1, 12));
}

TEST(IntervalSet, InsertBridgesGap) {
  IntervalSet s;
  s.insert(1, 3);
  s.insert(7, 9);
  s.insert(4, 6);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.covers(1, 9));
}

TEST(IntervalSet, InsertSwallowsMultiple) {
  IntervalSet s;
  s.insert(2);
  s.insert(5);
  s.insert(8);
  s.insert(0, 10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.cardinality(), 11u);
}

TEST(IntervalSet, IdempotentInsert) {
  IntervalSet s;
  s.insert(3, 5);
  s.insert(3, 5);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.cardinality(), 3u);
}

TEST(IntervalSet, FirstGapInsideInterval) {
  IntervalSet s;
  s.insert(0, 9);
  EXPECT_EQ(s.first_gap(0), 10);
  EXPECT_EQ(s.first_gap(5), 10);
  EXPECT_EQ(s.first_gap(10), 10);
  EXPECT_EQ(s.first_gap(-3), -3);
}

TEST(IntervalSet, ContiguousEnd) {
  IntervalSet s;
  s.insert(0, 4);
  s.insert(6, 8);
  EXPECT_EQ(s.contiguous_end(0), 4);
  EXPECT_EQ(s.contiguous_end(3), 4);
  EXPECT_FALSE(s.contiguous_end(5).has_value());
  EXPECT_EQ(s.contiguous_end(6), 8);
}

TEST(IntervalSet, NegativeKeys) {
  IntervalSet s;
  s.insert(-10, -5);
  EXPECT_TRUE(s.contains(-7));
  EXPECT_FALSE(s.contains(-11));
  s.insert(-4, 0);
  EXPECT_EQ(s.interval_count(), 1u);
}

TEST(IntervalSet, ToStringFormat) {
  IntervalSet s;
  s.insert(1, 2);
  s.insert(5);
  EXPECT_EQ(s.to_string(), "{[1,2], [5,5]}");
}

// Property test: IntervalSet::contains agrees with a reference std::set
// under random interleaved insertions.
TEST(IntervalSetProperty, MatchesReferenceSet) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    IntervalSet s;
    std::set<std::int64_t> reference;
    for (int op = 0; op < 300; ++op) {
      const std::int64_t lo = rng.uniform_i64(-50, 50);
      const std::int64_t hi = lo + rng.uniform_i64(0, 8);
      s.insert(lo, hi);
      for (std::int64_t k = lo; k <= hi; ++k) reference.insert(k);
    }
    for (std::int64_t k = -60; k <= 70; ++k) {
      EXPECT_EQ(s.contains(k), reference.contains(k)) << "seed=" << seed << " k=" << k;
    }
    EXPECT_EQ(s.cardinality(), reference.size());
    // Intervals must be disjoint and non-adjacent (maximally coalesced).
    std::int64_t prev_hi = std::numeric_limits<std::int64_t>::min();
    bool first = true;
    for (const auto& [lo, hi] : s.intervals()) {
      EXPECT_LE(lo, hi);
      if (!first) {
        EXPECT_GT(lo, prev_hi + 1);
      }
      prev_hi = hi;
      first = false;
    }
  }
}

// Property: first_gap always returns a key not in the set, and everything
// between `from` and the gap is in the set.
TEST(IntervalSetProperty, FirstGapCorrect) {
  Rng rng(99);
  IntervalSet s;
  for (int op = 0; op < 100; ++op) {
    const std::int64_t lo = rng.uniform_i64(0, 200);
    s.insert(lo, lo + rng.uniform_i64(0, 5));
  }
  for (std::int64_t from = 0; from <= 210; from += 7) {
    const std::int64_t gap = s.first_gap(from);
    EXPECT_FALSE(s.contains(gap));
    for (std::int64_t k = from; k < gap; ++k) EXPECT_TRUE(s.contains(k));
  }
}

TEST(RequestIdSet, KeepsEachClientsSeqsApart) {
  RequestIdSet s;
  s.insert(RequestId{NodeId{1}, 0});
  s.insert(RequestId{NodeId{1}, 2});
  s.insert(RequestId{NodeId{2}, 1});
  EXPECT_TRUE(s.contains(RequestId{NodeId{1}, 0}));
  EXPECT_FALSE(s.contains(RequestId{NodeId{1}, 1}));
  EXPECT_TRUE(s.contains(RequestId{NodeId{1}, 2}));
  EXPECT_FALSE(s.contains(RequestId{NodeId{2}, 0}));
  EXPECT_TRUE(s.contains(RequestId{NodeId{2}, 1}));
  EXPECT_FALSE(s.contains(RequestId{NodeId{3}, 1}));
  s.clear();
  EXPECT_FALSE(s.contains(RequestId{NodeId{1}, 0}));
}

}  // namespace
}  // namespace domino

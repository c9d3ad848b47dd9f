#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace domino::sim {
namespace {

TEST(Simulator, StartsAtEpoch) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::epoch());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_after(milliseconds(30), [&] { order.push_back(3); });
  s.schedule_after(milliseconds(10), [&] { order.push_back(1); });
  s.schedule_after(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeFifoOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator s;
  TimePoint seen;
  s.schedule_after(milliseconds(42), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, TimePoint::epoch() + milliseconds(42));
  EXPECT_EQ(s.now(), TimePoint::epoch() + milliseconds(42));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator s;
  bool ran = false;
  s.schedule_after(milliseconds(10), [&] {
    // From inside an event, scheduling in the past runs "immediately".
    s.schedule_at(TimePoint::epoch(), [&ran, &s] {
      ran = true;
      EXPECT_EQ(s.now(), TimePoint::epoch() + milliseconds(10));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator s;
  int runs = 0;
  s.schedule_after(milliseconds(-5), [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int runs = 0;
  s.schedule_after(milliseconds(10), [&] { ++runs; });
  s.schedule_after(milliseconds(20), [&] { ++runs; });
  s.schedule_after(milliseconds(30), [&] { ++runs; });
  s.run_until(TimePoint::epoch() + milliseconds(20));
  EXPECT_EQ(runs, 2);  // the event at exactly the deadline still runs
  EXPECT_EQ(s.now(), TimePoint::epoch() + milliseconds(20));
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(TimePoint::epoch() + seconds(5));
  EXPECT_EQ(s.now(), TimePoint::epoch() + seconds(5));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 5) s.schedule_after(milliseconds(1), chain);
  };
  s.schedule_after(milliseconds(1), chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), TimePoint::epoch() + milliseconds(5));
}

TEST(Simulator, ExecutedEventsCounted) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_after(milliseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

}  // namespace
}  // namespace domino::sim

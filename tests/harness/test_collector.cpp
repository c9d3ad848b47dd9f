#include "harness/collector.h"

#include <gtest/gtest.h>

#include <vector>

namespace domino::harness {
namespace {

RequestId rid(std::uint64_t seq) { return RequestId{NodeId{1000}, seq}; }
TimePoint at_ms(std::int64_t ms) { return TimePoint::epoch() + milliseconds(ms); }

TEST(LatencyCollector, RecordsCommitLatencyInsideWindow) {
  LatencyCollector c(at_ms(1000), at_ms(2000), 2);
  c.on_send(0, rid(0), at_ms(1500));
  c.on_commit(0, rid(0), at_ms(1500), at_ms(1560));
  EXPECT_EQ(c.commit_ms().count(), 1u);
  EXPECT_DOUBLE_EQ(c.commit_ms().percentile(50), 60.0);
  EXPECT_EQ(c.commit_ms_of(0).count(), 1u);
  EXPECT_EQ(c.commit_ms_of(1).count(), 0u);
}

TEST(LatencyCollector, IgnoresRequestsOutsideWindow) {
  LatencyCollector c(at_ms(1000), at_ms(2000), 1);
  c.on_send(0, rid(0), at_ms(500));   // warmup
  c.on_send(0, rid(1), at_ms(2500));  // cooldown
  c.on_commit(0, rid(0), at_ms(500), at_ms(560));
  c.on_commit(0, rid(1), at_ms(2500), at_ms(2560));
  EXPECT_EQ(c.commit_ms().count(), 0u);
  EXPECT_EQ(c.tracked_count(), 0u);
}

TEST(LatencyCollector, WindowBoundariesInclusive) {
  LatencyCollector c(at_ms(1000), at_ms(2000), 1);
  c.on_send(0, rid(0), at_ms(1000));
  c.on_send(0, rid(1), at_ms(2000));
  EXPECT_EQ(c.tracked_count(), 2u);
}

TEST(LatencyCollector, ExecSamplesPerReplica) {
  LatencyCollector c(at_ms(0), at_ms(1000), 1);
  c.on_send(0, rid(0), at_ms(100));
  // Three replicas execute the same command at different times.
  c.on_execute(rid(0), at_ms(150));
  c.on_execute(rid(0), at_ms(180));
  c.on_execute(rid(0), at_ms(220));
  EXPECT_EQ(c.exec_ms().count(), 3u);
  EXPECT_DOUBLE_EQ(c.exec_ms().percentile(0), 50.0);
  EXPECT_DOUBLE_EQ(c.exec_ms().percentile(100), 120.0);
}

TEST(LatencyCollector, ExecOfUntrackedIgnored) {
  LatencyCollector c(at_ms(0), at_ms(1000), 1);
  c.on_execute(rid(9), at_ms(100));
  EXPECT_EQ(c.exec_ms().count(), 0u);
}

TEST(LatencyCollector, ResentIdKeepsFirstSendTime) {
  LatencyCollector c(at_ms(0), at_ms(1000), 1);
  c.on_send(0, rid(4), at_ms(100));
  c.on_send(0, rid(4), at_ms(300));
  EXPECT_EQ(c.tracked_count(), 1u);
  c.on_execute(rid(4), at_ms(350));
  ASSERT_EQ(c.exec_ms().count(), 1u);
  EXPECT_DOUBLE_EQ(c.exec_ms().percentile(50), 250.0);
}

TEST(LatencyCollector, SeqGapsStayUntracked) {
  LatencyCollector c(at_ms(0), at_ms(1000), 1);
  c.on_send(0, rid(10), at_ms(100));
  c.on_send(0, rid(13), at_ms(130));
  c.on_send(0, rid(8), at_ms(140));  // below the first tracked seq
  EXPECT_EQ(c.tracked_count(), 3u);
  for (const std::uint64_t seq : {7u, 9u, 11u, 12u, 14u}) c.on_execute(rid(seq), at_ms(500));
  EXPECT_EQ(c.exec_ms().count(), 0u);
  c.on_execute(rid(8), at_ms(150));
  c.on_execute(rid(10), at_ms(200));
  c.on_execute(rid(13), at_ms(330));
  EXPECT_EQ(c.exec_ms().sorted_values(), (std::vector<double>{10.0, 100.0, 200.0}));
}

TEST(LatencyCollector, InterleavedClientsKeepTheirOwnSends) {
  LatencyCollector c(at_ms(0), at_ms(1000), 3);
  const auto id = [](std::uint32_t client, std::uint64_t seq) {
    return RequestId{NodeId{client}, seq};
  };
  c.on_send(0, id(1000, 0), at_ms(10));
  c.on_send(2, id(1002, 0), at_ms(20));
  c.on_send(1, id(1001, 5), at_ms(30));
  c.on_send(0, id(1000, 1), at_ms(40));
  c.on_send(2, id(1002, 1), at_ms(50));
  EXPECT_EQ(c.tracked_count(), 5u);
  c.on_execute(id(1002, 1), at_ms(51));
  c.on_execute(id(1000, 1), at_ms(42));
  c.on_execute(id(1001, 5), at_ms(33));
  c.on_execute(id(1002, 0), at_ms(24));
  c.on_execute(id(1000, 0), at_ms(15));
  EXPECT_EQ(c.exec_ms().sorted_values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(LatencyCollector, ExecOfUnknownClientOrUntrackedSeqIgnored) {
  LatencyCollector c(at_ms(1000), at_ms(2000), 2);
  c.on_send(0, rid(0), at_ms(500));   // before the window: not tracked
  c.on_send(0, rid(1), at_ms(1100));
  c.on_execute(rid(0), at_ms(1200));
  c.on_execute(rid(2), at_ms(1200));
  c.on_execute(RequestId{NodeId{1001}, 1}, at_ms(1200));  // a client that never sent
  EXPECT_EQ(c.exec_ms().count(), 0u);
  c.on_execute(rid(1), at_ms(1200));
  EXPECT_EQ(c.exec_ms().count(), 1u);
}

TEST(LatencyCollector, ReleaseMovesEverySampleOut) {
  LatencyCollector c(at_ms(0), at_ms(1000), 2);
  c.on_send(1, rid(0), at_ms(100));
  c.on_commit(1, rid(0), at_ms(100), at_ms(130));
  c.on_execute(rid(0), at_ms(140));
  LatencyCollector::Samples samples = c.release();
  EXPECT_EQ(samples.commit_ms.sorted_values(), std::vector<double>{30.0});
  EXPECT_EQ(samples.exec_ms.sorted_values(), std::vector<double>{40.0});
  ASSERT_EQ(samples.commit_per_client.size(), 2u);
  EXPECT_EQ(samples.commit_per_client[1].count(), 1u);
  EXPECT_TRUE(c.commit_ms().empty());
  EXPECT_TRUE(c.exec_ms().empty());
  c.on_commit(0, rid(1), at_ms(200), at_ms(205));
  EXPECT_EQ(c.commit_ms().mean(), 5.0);  // no sum left over from before
}

TEST(LatencyCollector, CommittedCountOnlyWindowed) {
  LatencyCollector c(at_ms(1000), at_ms(2000), 1);
  c.on_send(0, rid(0), at_ms(1100));
  c.on_commit(0, rid(0), at_ms(1100), at_ms(1200));
  c.on_commit(0, rid(1), at_ms(900), at_ms(950));  // sent pre-window
  EXPECT_EQ(c.committed_count(), 1u);
}

}  // namespace
}  // namespace domino::harness

#include "log/index_log.h"

#include <gtest/gtest.h>

namespace domino::log {
namespace {

sm::Command cmd(std::uint64_t seq) {
  sm::Command c;
  c.id = RequestId{NodeId{1}, seq};
  c.key = "k" + std::to_string(seq);
  c.value = "v";
  return c;
}

TEST(IndexLog, AcceptThenCommitThenExecute) {
  IndexLog log;
  log.accept(0, cmd(0));
  EXPECT_TRUE(log.drain_executable().empty());  // accepted != committed
  log.commit(0);
  const auto execd = log.drain_executable();
  ASSERT_EQ(execd.size(), 1u);
  EXPECT_EQ(execd[0].first, 0u);
  EXPECT_EQ(log.execution_frontier(), 1u);
}

TEST(IndexLog, ExecutionWaitsForContiguity) {
  IndexLog log;
  log.accept(0, cmd(0));
  log.accept(1, cmd(1));
  log.commit(1);
  EXPECT_TRUE(log.drain_executable().empty());  // hole at 0
  log.commit(0);
  EXPECT_EQ(log.drain_executable().size(), 2u);
}

TEST(IndexLog, SkipsUnblockExecution) {
  IndexLog log;
  log.accept(5, cmd(5));
  log.commit(5);
  EXPECT_TRUE(log.drain_executable().empty());
  log.skip(0, 4);
  const auto execd = log.drain_executable();
  ASSERT_EQ(execd.size(), 1u);
  EXPECT_EQ(execd[0].first, 5u);
  EXPECT_EQ(log.execution_frontier(), 6u);
}

TEST(IndexLog, CommitWithCommandCreatesEntry) {
  IndexLog log;
  log.commit(3, cmd(3));
  log.skip(0, 2);
  EXPECT_EQ(log.drain_executable().size(), 1u);
}

TEST(IndexLog, CommitWithoutEntryOrCommandThrows) {
  IndexLog log;
  EXPECT_THROW(log.commit(0), std::logic_error);
}

TEST(IndexLog, ReacceptBeforeCommitAllowed) {
  IndexLog log;
  log.accept(0, cmd(0));
  log.accept(0, cmd(99));  // ballot-1 style overwrite
  log.commit(0);
  const auto execd = log.drain_executable();
  EXPECT_EQ(execd[0].second.id.seq, 99u);
}

TEST(IndexLog, AcceptOverCommittedThrows) {
  IndexLog log;
  log.commit(0, cmd(0));
  EXPECT_THROW(log.accept(0, cmd(1)), std::logic_error);
}

TEST(IndexLog, CommitIdempotent) {
  IndexLog log;
  log.commit(0, cmd(0));
  log.commit(0);
  EXPECT_EQ(log.drain_executable().size(), 1u);
  log.commit(0);  // after execution: still fine
  EXPECT_TRUE(log.drain_executable().empty());
}

TEST(IndexLog, SkippedRunsCoalesce) {
  IndexLog log;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i % 10 != 0) log.skip(i, i);
  }
  // 10 occupied holes -> at most 10+1 intervals (the compression property
  // from paper Section 6).
  EXPECT_LE(log.skip_interval_count(), 11u);
}

TEST(IndexLog, LargeSkipJumpIsConstantTime) {
  IndexLog log;
  log.skip(0, 1'000'000'000);
  log.commit(1'000'000'001, cmd(1));
  const auto execd = log.drain_executable();
  ASSERT_EQ(execd.size(), 1u);
  EXPECT_EQ(log.execution_frontier(), 1'000'000'002u);
}

TEST(IndexLog, DrainErasesExecutedEntries) {
  IndexLog log;
  for (std::uint64_t i = 0; i < 4; ++i) log.accept(i, cmd(i));
  log.accept(5, cmd(5));
  EXPECT_EQ(log.occupied_count(), 5u);
  for (std::uint64_t i = 0; i < 4; ++i) log.commit(i);
  const auto execd = log.drain_executable();
  ASSERT_EQ(execd.size(), 4u);
  EXPECT_EQ(execd[3].second.id.seq, 3u);  // commands are handed out intact
  EXPECT_EQ(log.execution_frontier(), 4u);
  EXPECT_EQ(log.occupied_count(), 1u);  // only the in-flight entry at 5
  EXPECT_EQ(log.entry(0), nullptr);
  log.skip(4, 4);
  log.commit(5);
  EXPECT_EQ(log.drain_executable().size(), 1u);
  EXPECT_EQ(log.occupied_count(), 0u);
  EXPECT_EQ(log.executed_count(), 5u);
}

TEST(IndexLog, BelowFrontierIsExecutedUnlessSkipped) {
  IndexLog log;
  log.commit(0, cmd(0));
  log.skip(1, 1);
  log.commit(2, cmd(2));
  (void)log.drain_executable();
  ASSERT_EQ(log.execution_frontier(), 3u);
  EXPECT_TRUE(log.is_executed(0));
  EXPECT_TRUE(log.is_committed(0));
  EXPECT_FALSE(log.is_executed(1));  // a no-op, not an executed command
  EXPECT_FALSE(log.is_committed(1));
  EXPECT_TRUE(log.is_committed(2));
  EXPECT_FALSE(log.is_executed(3));
  EXPECT_FALSE(log.is_committed(3));
}

TEST(IndexLog, LateCommitOfExecutedPositionIsNoop) {
  IndexLog log;
  log.commit(0, cmd(0));
  (void)log.drain_executable();
  log.commit(0);          // no entry and no command, but executed: fine
  log.commit(0, cmd(7));  // must not resurrect the position
  EXPECT_EQ(log.occupied_count(), 0u);
  EXPECT_TRUE(log.committed_unexecuted().empty());
  EXPECT_TRUE(log.drain_executable().empty());
}

TEST(IndexLog, LateAcceptOfExecutedPositionThrows) {
  IndexLog log;
  log.commit(0, cmd(0));
  (void)log.drain_executable();
  EXPECT_THROW(log.accept(0, cmd(1)), std::logic_error);
  EXPECT_EQ(log.occupied_count(), 0u);
}

TEST(IndexLog, IsCommittedAndEntryAccessors) {
  IndexLog log;
  log.accept(0, cmd(0));
  EXPECT_FALSE(log.is_committed(0));
  EXPECT_NE(log.entry(0), nullptr);
  EXPECT_EQ(log.entry(1), nullptr);
  log.commit(0);
  EXPECT_TRUE(log.is_committed(0));
  EXPECT_EQ(log.executed_count(), 0u);
  (void)log.drain_executable();
  EXPECT_EQ(log.executed_count(), 1u);
}

}  // namespace
}  // namespace domino::log

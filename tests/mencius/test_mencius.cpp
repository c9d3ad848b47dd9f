#include <gtest/gtest.h>

#include "mencius/client.h"
#include "mencius/replica.h"
#include "support/fixtures.h"

namespace domino::mencius {
namespace {

using test::four_dc;
using test::make_command;
using test::replica_ids;

struct MenciusCluster : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, four_dc(), 1};
  std::vector<NodeId> rids = replica_ids(3);
  std::vector<std::unique_ptr<Replica>> replicas;

  void SetUp() override {
    for (std::size_t i = 0; i < 3; ++i) {
      replicas.push_back(std::make_unique<Replica>(rids[i], i, network, rids));
      replicas.back()->attach();
      replicas.back()->start();
    }
  }

  std::unique_ptr<Client> make_client(NodeId id, std::size_t dc, NodeId coordinator) {
    auto c = std::make_unique<Client>(id, dc, network, coordinator);
    c->attach();
    return c;
  }
};

TEST_F(MenciusCluster, RanksFollowReplicaOrder) {
  EXPECT_EQ(replicas[0]->rank(), 0u);
  EXPECT_EQ(replicas[1]->rank(), 1u);
  EXPECT_EQ(replicas[2]->rank(), 2u);
}

TEST_F(MenciusCluster, SingleRequestCommits) {
  auto client = make_client(NodeId{1000}, 0, rids[0]);
  client->submit(make_command(client->id(), 0));
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_EQ(client->committed_count(), 1u);
  EXPECT_EQ(replicas[0]->owned_proposals(), 1u);
}

TEST_F(MenciusCluster, OwnedInstancesUseOwnResidues) {
  auto client = make_client(NodeId{1000}, 1, rids[1]);
  client->submit(make_command(client->id(), 0));
  client->submit(make_command(client->id(), 1));
  simulator.run_until(TimePoint::epoch() + seconds(1));
  // Replica 1 owns indices 1, 4, 7...; its first two proposals are at 1, 4,
  // and the other lanes' instances below them are no-ops. The log compacts
  // executed entries, so read the outcome from the frontier and skip set.
  const auto& log = replicas[0]->log();
  ASSERT_GE(log.execution_frontier(), 5u);
  for (const std::uint64_t idx : {1u, 4u}) {
    EXPECT_TRUE(log.is_executed(idx)) << idx;
    EXPECT_FALSE(log.is_skipped(idx)) << idx;
  }
  for (const std::uint64_t idx : {0u, 2u, 3u}) EXPECT_TRUE(log.is_skipped(idx)) << idx;
}

TEST_F(MenciusCluster, SkipsFillForeignLanes) {
  auto client = make_client(NodeId{1000}, 0, rids[0]);
  client->submit(make_command(client->id(), 0));
  simulator.run_until(TimePoint::epoch() + seconds(1));
  // Instance 0 committed and executed everywhere despite lanes 1, 2 idle:
  // heartbeat skips unblocked them.
  for (const auto& r : replicas) {
    EXPECT_GE(r->log().execution_frontier(), 1u);
  }
}

TEST_F(MenciusCluster, ConcurrentProposersConverge) {
  auto c0 = make_client(NodeId{1000}, 0, rids[0]);
  auto c1 = make_client(NodeId{1001}, 1, rids[1]);
  auto c2 = make_client(NodeId{1002}, 2, rids[2]);
  for (std::uint64_t s = 0; s < 30; ++s) {
    c0->submit(make_command(c0->id(), s, "k" + std::to_string(s % 7)));
    c1->submit(make_command(c1->id(), s, "k" + std::to_string(s % 5)));
    c2->submit(make_command(c2->id(), s, "k" + std::to_string(s % 3)));
  }
  simulator.run_until(TimePoint::epoch() + seconds(3));
  EXPECT_EQ(c0->committed_count(), 30u);
  EXPECT_EQ(c1->committed_count(), 30u);
  EXPECT_EQ(c2->committed_count(), 30u);
  const auto& ref = replicas[0]->store().items();
  for (const auto& r : replicas) EXPECT_EQ(r->store().items(), ref);
}

TEST_F(MenciusCluster, ExecutionOrderIdenticalAcrossReplicas) {
  test::ExecTrace traces[3];
  for (std::size_t i = 0; i < 3; ++i) replicas[i]->set_execute_hook(std::ref(traces[i]));
  auto c0 = make_client(NodeId{1000}, 0, rids[0]);
  auto c2 = make_client(NodeId{1002}, 2, rids[2]);
  for (std::uint64_t s = 0; s < 20; ++s) {
    c0->submit(make_command(c0->id(), s));
    c2->submit(make_command(c2->id(), s));
  }
  simulator.run_until(TimePoint::epoch() + seconds(3));
  ASSERT_EQ(traces[0].order.size(), 40u);
  EXPECT_EQ(traces[0].order, traces[1].order);
  EXPECT_EQ(traces[0].order, traces[2].order);
}

TEST_F(MenciusCluster, CommitWaitsForEarlierInstances) {
  // A proposal at replica 2 (instance 2) cannot be answered before replica
  // 2 learns instances 0 and 1 are resolved. With idle lanes 0 and 1, the
  // resolution comes from heartbeat skips (up to 10 ms) — so commit latency
  // exceeds the bare majority round trip.
  auto client = make_client(NodeId{1000}, 2, rids[2]);
  TimePoint committed;
  client->set_commit_hook([&](const RequestId&, TimePoint, TimePoint at) { committed = at; });
  client->submit(make_command(client->id(), 0));
  simulator.run_until(TimePoint::epoch() + seconds(1));
  // Majority round from C: nearest peer D? No — replicas are in A, B, C;
  // from C the nearest is B (30 ms RTT). Client is co-located (0.5 ms).
  const double ms = (committed - TimePoint::epoch()).millis();
  EXPECT_GE(ms, 10.0);  // at least the majority round trip
  EXPECT_LE(ms, 45.0);  // but bounded by round trip + heartbeat slack
}

TEST_F(MenciusCluster, LoadRunAllCommitted) {
  auto client = make_client(NodeId{1000}, 1, rids[1]);
  sm::WorkloadConfig wc;
  wc.num_keys = 50;
  sm::WorkloadGenerator gen(wc, 3);
  client->start_load(gen, 400.0);
  simulator.run_until(TimePoint::epoch() + seconds(2));
  client->stop_load();
  simulator.run_until(TimePoint::epoch() + seconds(4));
  EXPECT_GT(client->submitted_count(), 700u);
  EXPECT_EQ(client->committed_count(), client->submitted_count());
}

}  // namespace
}  // namespace domino::mencius

#include <gtest/gtest.h>

#include "paxos/client.h"
#include "paxos/replica.h"
#include "support/fixtures.h"

namespace domino::paxos {
namespace {

using test::four_dc;
using test::make_command;
using test::replica_ids;

struct PaxosCluster : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, four_dc(), 1};
  std::vector<NodeId> rids = replica_ids(3);
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<Client> client;

  void SetUp() override {
    // Replicas in A, B, C; leader in A; client in D.
    for (std::size_t i = 0; i < 3; ++i) {
      replicas.push_back(
          std::make_unique<Replica>(rids[i], i, network, rids, rids[0]));
      replicas.back()->attach();
    }
    client = std::make_unique<Client>(NodeId{1000}, 3, network, rids[0]);
    client->attach();
  }
};

TEST_F(PaxosCluster, SingleRequestCommits) {
  client->submit(make_command(client->id(), 0));
  simulator.run();
  EXPECT_EQ(client->committed_count(), 1u);
  EXPECT_EQ(replicas[0]->committed_count(), 1u);
}

TEST_F(PaxosCluster, CommitLatencyIsClientLeaderPlusMajority) {
  TimePoint committed;
  client->set_commit_hook(
      [&](const RequestId&, TimePoint, TimePoint at) { committed = at; });
  client->submit(make_command(client->id(), 0));
  simulator.run();
  // Client D -> leader A: 30 ms OWD. Leader replicates; nearest follower is
  // B (20 ms RTT). Reply D: 30 ms. Total 30 + 20 + 30 = 80 ms.
  EXPECT_NEAR((committed - TimePoint::epoch()).millis(), 80.0, 0.5);
}

TEST_F(PaxosCluster, AllReplicasExecuteInOrder) {
  test::ExecTrace traces[3];
  for (std::size_t i = 0; i < 3; ++i) {
    replicas[i]->set_execute_hook(std::ref(traces[i]));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    client->submit(make_command(client->id(), s, "k" + std::to_string(s)));
  }
  simulator.run();
  for (const auto& t : traces) {
    ASSERT_EQ(t.order.size(), 10u);
    for (std::uint64_t s = 0; s < 10; ++s) EXPECT_EQ(t.order[s].seq, s);
  }
}

TEST_F(PaxosCluster, StateConvergesAcrossReplicas) {
  for (std::uint64_t s = 0; s < 20; ++s) {
    client->submit(make_command(client->id(), s, "k" + std::to_string(s % 5),
                                "v" + std::to_string(s)));
  }
  simulator.run();
  const auto& ref = replicas[0]->store().items();
  for (const auto& r : replicas) {
    EXPECT_EQ(r->store().items(), ref);
  }
  EXPECT_EQ(ref.size(), 5u);
}

TEST_F(PaxosCluster, FollowerIgnoresClientRequests) {
  // A request sent to a follower is dropped (clients are configured to talk
  // to the leader; this guards the role check).
  Client rogue(NodeId{1001}, 3, network, rids[1]);
  rogue.attach();
  rogue.submit(make_command(rogue.id(), 0));
  simulator.run();
  EXPECT_EQ(rogue.committed_count(), 0u);
  EXPECT_EQ(replicas[1]->committed_count(), 0u);
}

TEST_F(PaxosCluster, TruncatedAcceptIsDroppedAndTheReplicaCarriesOn) {
  wire::Payload truncated = wire::encode_message(Accept{0, make_command(client->id(), 0)});
  truncated.resize(truncated.size() - 3);
  network.send(rids[0], rids[1], truncated);
  simulator.run();
  EXPECT_EQ(replicas[1]->malformed_dropped(), 1u);
  EXPECT_EQ(replicas[1]->log().entry(0), nullptr);

  client->submit(make_command(client->id(), 0));
  simulator.run();
  EXPECT_EQ(client->committed_count(), 1u);
  EXPECT_EQ(replicas[1]->store().applied_count(), 1u);
}

TEST_F(PaxosCluster, ManyRequestsAllCommit) {
  sm::WorkloadConfig wc;
  wc.num_keys = 100;
  sm::WorkloadGenerator gen(wc, 7);
  client->start_load(gen, 500.0);
  simulator.run_until(TimePoint::epoch() + seconds(2));
  client->stop_load();
  simulator.run_until(TimePoint::epoch() + seconds(3));
  EXPECT_EQ(client->submitted_count(), 1000u);
  EXPECT_EQ(client->committed_count(), 1000u);
}

TEST_F(PaxosCluster, LeaderLocalClientIsFast) {
  Client local(NodeId{1002}, 0, network, rids[0]);
  local.attach();
  TimePoint committed;
  local.set_commit_hook([&](const RequestId&, TimePoint, TimePoint at) { committed = at; });
  local.submit(make_command(local.id(), 0));
  simulator.run();
  // Intra-DC to leader (0.25) + replication to B (20) + back (0.25).
  EXPECT_NEAR((committed - TimePoint::epoch()).millis(), 20.5, 0.5);
}

}  // namespace
}  // namespace domino::paxos

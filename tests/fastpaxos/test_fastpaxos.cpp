#include <gtest/gtest.h>

#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "support/fixtures.h"

namespace domino::fastpaxos {
namespace {

using test::four_dc;
using test::make_command;
using test::replica_ids;

/// A bare node that keeps every packet it receives: it stands in for a
/// recovering acceptor's late report or for a retrying client.
struct Recorder : rpc::Node {
  using rpc::Node::Node;
  std::vector<net::Packet> packets;

  template <typename M>
  [[nodiscard]] std::vector<M> received() const {
    std::vector<M> out;
    for (const net::Packet& p : packets) {
      if (wire::peek_type(p.payload) == M::kType) {
        out.push_back(wire::decode_message<M>(p.payload));
      }
    }
    return out;
  }

 protected:
  void on_packet(const net::Packet& packet) override { packets.push_back(packet); }
};

struct FastPaxosCluster : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, four_dc(), 1};
  std::vector<NodeId> rids = replica_ids(3);
  std::vector<std::unique_ptr<Replica>> replicas;

  void SetUp() override {
    for (std::size_t i = 0; i < 3; ++i) {
      replicas.push_back(
          std::make_unique<Replica>(rids[i], i, network, rids, rids[0]));
      replicas.back()->attach();
    }
  }

  std::unique_ptr<Client> make_client(NodeId id, std::size_t dc) {
    auto c = std::make_unique<Client>(id, dc, network, rids);
    c->attach();
    return c;
  }
};

TEST_F(FastPaxosCluster, SingleClientUsesFastPath) {
  auto client = make_client(NodeId{1000}, 3);
  for (std::uint64_t s = 0; s < 10; ++s) client->submit(make_command(client->id(), s));
  simulator.run_until(TimePoint::epoch() + seconds(2));
  EXPECT_EQ(client->committed_count(), 10u);
  EXPECT_EQ(client->fast_learns(), 10u);
  EXPECT_EQ(replicas[0]->fast_commits(), 10u);
  EXPECT_EQ(replicas[0]->slow_commits(), 0u);
}

TEST_F(FastPaxosCluster, FastPathLatencyIsSupermajorityRoundTrip) {
  auto client = make_client(NodeId{1000}, 3);
  TimePoint committed;
  client->set_commit_hook([&](const RequestId&, TimePoint, TimePoint at) { committed = at; });
  client->submit(make_command(client->id(), 0));
  simulator.run_until(TimePoint::epoch() + seconds(1));
  // From D, RTTs to A/B/C are 60/50/10; q=3 -> furthest = 60 ms.
  EXPECT_NEAR((committed - TimePoint::epoch()).millis(), 60.0, 0.5);
}

TEST_F(FastPaxosCluster, ConcurrentClientsCollideAndRecover) {
  auto c0 = make_client(NodeId{1000}, 0);
  auto c3 = make_client(NodeId{1001}, 3);
  // Interleave so arrival orders differ at the acceptors.
  for (std::uint64_t s = 0; s < 20; ++s) {
    simulator.schedule_after(milliseconds(static_cast<std::int64_t>(s) * 3),
                             [&c0, s] { c0->submit(make_command(c0->id(), s)); });
    simulator.schedule_after(milliseconds(static_cast<std::int64_t>(s) * 3 + 1),
                             [&c3, s] { c3->submit(make_command(c3->id(), s)); });
  }
  simulator.run_until(TimePoint::epoch() + seconds(10));
  EXPECT_EQ(c0->committed_count(), 20u);
  EXPECT_EQ(c3->committed_count(), 20u);
  // Different arrival orders at different acceptors force the slow path at
  // least occasionally.
  EXPECT_GT(replicas[0]->slow_commits(), 0u);
}

TEST_F(FastPaxosCluster, StateConvergesUnderCollisions) {
  auto c0 = make_client(NodeId{1000}, 0);
  auto c3 = make_client(NodeId{1001}, 3);
  for (std::uint64_t s = 0; s < 30; ++s) {
    simulator.schedule_after(milliseconds(static_cast<std::int64_t>(s)),
                             [&c0, s] { c0->submit(make_command(c0->id(), s, "x")); });
    simulator.schedule_after(milliseconds(static_cast<std::int64_t>(s)),
                             [&c3, s] { c3->submit(make_command(c3->id(), s, "x")); });
  }
  simulator.run_until(TimePoint::epoch() + seconds(20));
  EXPECT_EQ(c0->committed_count(), 30u);
  EXPECT_EQ(c3->committed_count(), 30u);
  const auto& ref = replicas[0]->store().items();
  std::uint64_t executed = replicas[0]->store().applied_count();
  EXPECT_EQ(executed, 60u);
  for (const auto& r : replicas) EXPECT_EQ(r->store().items(), ref);
}

TEST_F(FastPaxosCluster, ExecutionOrderIdenticalAcrossReplicas) {
  test::ExecTrace traces[3];
  for (std::size_t i = 0; i < 3; ++i) replicas[i]->set_execute_hook(std::ref(traces[i]));
  auto c0 = make_client(NodeId{1000}, 0);
  auto c3 = make_client(NodeId{1001}, 3);
  for (std::uint64_t s = 0; s < 15; ++s) {
    simulator.schedule_after(milliseconds(static_cast<std::int64_t>(s) * 2),
                             [&c0, s] { c0->submit(make_command(c0->id(), s)); });
    simulator.schedule_after(milliseconds(static_cast<std::int64_t>(s) * 2),
                             [&c3, s] { c3->submit(make_command(c3->id(), s)); });
  }
  simulator.run_until(TimePoint::epoch() + seconds(20));
  ASSERT_EQ(traces[0].order.size(), 30u);
  EXPECT_EQ(traces[0].order, traces[1].order);
  EXPECT_EQ(traces[0].order, traces[2].order);
}

TEST_F(FastPaxosCluster, LateNoticeForErasedPositionGetsRecordedDecision) {
  auto client = make_client(NodeId{1000}, 3);
  const sm::Command x = make_command(client->id(), 0, "x", "vx");
  client->submit(x);
  simulator.run_until(TimePoint::epoch() + seconds(1));
  ASSERT_EQ(client->committed_count(), 1u);
  ASSERT_EQ(replicas[0]->fast_commits(), 1u);
  ASSERT_EQ(replicas[0]->retained_entries(), 0u);  // position 0 decided, executed, erased

  // A recovering acceptor re-reports its acceptance of X at position 0.
  Recorder late(NodeId{2000}, 1, network);
  late.attach();
  late.send(rids[0], AcceptNotice{0, x});
  simulator.run_until(TimePoint::epoch() + seconds(2));
  auto commits = late.received<Commit>();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].index, 0u);
  EXPECT_FALSE(commits[0].is_noop);
  EXPECT_EQ(commits[0].command, x);
  // No tally, no second decision, no recovery round, no re-proposal.
  EXPECT_EQ(replicas[0]->retained_entries(), 0u);
  EXPECT_EQ(replicas[0]->fast_commits(), 1u);
  EXPECT_EQ(replicas[0]->slow_commits(), 0u);
  for (const auto& r : replicas) EXPECT_EQ(r->store().applied_count(), 1u);

  // A late report of a request that lost position 0 gets the same decision
  // back, and the loser is re-proposed at a fresh position.
  const sm::Command y = make_command(late.id(), 0, "y", "vy");
  late.packets.clear();
  late.send(rids[0], AcceptNotice{0, y});
  simulator.run_until(TimePoint::epoch() + seconds(3));
  commits = late.received<Commit>();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].index, 0u);
  EXPECT_EQ(commits[0].command, x);
  EXPECT_EQ(late.received<ClientReply>().size(), 1u);  // y committed
  EXPECT_EQ(replicas[0]->fast_commits(), 2u);
  EXPECT_EQ(replicas[0]->slow_commits(), 0u);
  for (const auto& r : replicas) {
    EXPECT_EQ(r->store().applied_count(), 2u);
    EXPECT_EQ(r->store().get("y"), "vy");
    EXPECT_EQ(r->retained_entries(), 0u);
  }
}

TEST_F(FastPaxosCluster, RetryOfExecutedRequestIsAnsweredFromExecutedSet) {
  Recorder client(NodeId{1000}, 3, network);
  client.attach();
  const sm::Command x = make_command(client.id(), 0, "x", "vx");
  for (NodeId r : rids) client.send(r, ClientRequest{x});
  simulator.run_until(TimePoint::epoch() + seconds(1));
  ASSERT_EQ(client.received<AcceptNotice>().size(), 3u);
  for (const auto& r : replicas) {
    ASSERT_EQ(r->store().applied_count(), 1u);
    ASSERT_EQ(r->retained_entries(), 0u);  // the assignment went with execution
  }

  // The retry reaches one acceptor, which answers it directly: no new
  // position, no notice to the coordinator.
  client.packets.clear();
  client.send(rids[1], ClientRequest{x});
  simulator.run_until(TimePoint::epoch() + seconds(2));
  ASSERT_EQ(client.packets.size(), 1u);
  EXPECT_EQ(client.packets[0].src, rids[1]);
  const auto replies = client.received<ClientReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].request, x.id);
  EXPECT_EQ(replicas[1]->retained_entries(), 0u);
  EXPECT_EQ(replicas[0]->fast_commits(), 1u);
  for (const auto& r : replicas) EXPECT_EQ(r->store().applied_count(), 1u);
}

}  // namespace
}  // namespace domino::fastpaxos

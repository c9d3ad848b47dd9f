// End-to-end: the full Domino protocol stack over real TCP sockets on
// loopback — three replicas and a client in one process, real clocks, real
// framing. The identical protocol code runs in the simulator for the
// evaluation; this proves the transport abstraction holds.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/replica.h"
#include "net/tcp/tcp_context.h"

namespace domino::core {
namespace {

using net::tcp::Endpoint;
using net::tcp::EventLoop;
using net::tcp::TcpContext;

void pump(EventLoop& loop, const std::function<bool()>& done,
          Duration deadline = seconds(10)) {
  const TimePoint until = loop.now() + deadline;
  while (!done() && loop.now() < until) {
    loop.poll(milliseconds(10));
  }
}

struct TcpDomino : ::testing::Test {
  EventLoop loop;
  TcpContext context{loop};
  std::vector<NodeId> rids{NodeId{0}, NodeId{1}, NodeId{2}};
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<Client> client;

  void SetUp() override {
    for (NodeId r : rids) context.host_node(r, {"127.0.0.1", 0});
    context.host_node(NodeId{100}, {"127.0.0.1", 0});

    ReplicaConfig rc;
    // Real loopback RTTs are tens of microseconds; shrink the timescales.
    rc.heartbeat_interval = milliseconds(5);
    rc.prober.probe_interval = milliseconds(5);
    rc.prober.window = milliseconds(500);
    for (NodeId r : rids) {
      replicas.push_back(std::make_unique<Replica>(r, context, rids, rids[0], rc));
      replicas.back()->attach();
      replicas.back()->start();
    }
    ClientConfig cc;
    cc.prober.probe_interval = milliseconds(5);
    cc.prober.window = milliseconds(500);
    cc.additional_delay = milliseconds(2);  // generous slack vs OS jitter
    client = std::make_unique<Client>(NodeId{100}, context, rids, cc);
    client->attach();
    client->start();
    // Warm the probers with real round trips.
    pump(loop, [] { return false; }, milliseconds(300));
  }
};

TEST_F(TcpDomino, EstimatesFromRealSockets) {
  const auto est = client->estimates();
  ASSERT_NE(est.dfp, Duration::max());
  ASSERT_NE(est.dm, Duration::max());
  // Loopback: everything is sub-millisecond-ish (allow slack for CI noise).
  EXPECT_LT(est.dfp.millis(), 50.0);
}

TEST_F(TcpDomino, CommitsOverRealTcp) {
  int committed = 0;
  client->set_commit_hook([&](const RequestId&, TimePoint, TimePoint) { ++committed; });
  for (std::uint64_t s = 0; s < 10; ++s) {
    sm::Command cmd;
    cmd.id = RequestId{client->id(), s};
    cmd.key = "key" + std::to_string(s);
    cmd.value = "val" + std::to_string(s);
    client->submit(cmd);
  }
  pump(loop, [&] { return committed >= 10; });
  EXPECT_EQ(committed, 10);
}

TEST_F(TcpDomino, ReplicasConvergeAndExecute) {
  int committed = 0;
  client->set_commit_hook([&](const RequestId&, TimePoint, TimePoint) { ++committed; });
  for (std::uint64_t s = 0; s < 20; ++s) {
    sm::Command cmd;
    cmd.id = RequestId{client->id(), s};
    cmd.key = "k" + std::to_string(s % 5);
    cmd.value = "v" + std::to_string(s);
    client->submit(cmd);
  }
  pump(loop, [&] { return committed >= 20; });
  ASSERT_EQ(committed, 20);
  // Give the no-op frontier a moment to pass the last timestamps.
  pump(loop, [&] {
    return replicas[0]->store().applied_count() >= 20 &&
           replicas[1]->store().applied_count() >= 20 &&
           replicas[2]->store().applied_count() >= 20;
  });
  const auto& ref = replicas[0]->store().items();
  EXPECT_EQ(ref.size(), 5u);
  for (const auto& r : replicas) {
    EXPECT_EQ(r->store().items(), ref);
    EXPECT_EQ(r->store().applied_count(), 20u);
  }
}

TEST(TcpMalformedFrame, ReplicaDropsItAndAnswersTheNextProbe) {
  EventLoop loop;
  TcpContext context{loop};
  const std::vector<NodeId> rids{NodeId{0}};
  context.host_node(rids[0], {"127.0.0.1", 0});
  Replica replica(rids[0], context, rids, rids[0]);
  replica.attach();

  // A raw peer: TcpHost sends its hello, then each frame verbatim.
  net::tcp::TcpHost peer(loop, NodeId{50}, {"127.0.0.1", 0});
  peer.add_peer(rids[0], {"127.0.0.1", context.port_of(rids[0])});
  context.set_peer_address(NodeId{50}, {"127.0.0.1", peer.port()});
  std::vector<measure::ProbeReply> replies;
  peer.set_receive_callback([&](NodeId, wire::Payload payload) {
    replies.push_back(wire::decode_message<measure::ProbeReply>(payload));
  });

  measure::Probe probe;
  probe.seq = 7;
  wire::Payload truncated = wire::encode_message(probe);
  truncated.pop_back();
  ASSERT_TRUE(peer.send(rids[0], wire::Payload{0x01}));
  ASSERT_TRUE(peer.send(rids[0], truncated));
  ASSERT_TRUE(peer.send(rids[0], wire::encode_message(probe)));
  pump(loop, [&] { return !replies.empty(); });
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].seq, 7u);
  EXPECT_EQ(replica.malformed_dropped(), 2u);
}

}  // namespace
}  // namespace domino::core

#include "rpc/node.h"

#include <gtest/gtest.h>

#include <vector>

#include "measure/messages.h"
#include "net/network.h"
#include "recovery/replica.h"

namespace domino::rpc {
namespace {

net::Topology one_dc() { return net::Topology{{"A"}, {{0.0}}}; }

class EchoNode : public Node {
 public:
  using Node::Node;
  int received = 0;
  NodeId last_from;

 protected:
  void on_packet(const net::Packet& packet) override {
    ++received;
    last_from = packet.src;
    if (wire::peek_type(packet.payload) == wire::MessageType::kProbe) {
      const auto probe = wire::decode_message<measure::Probe>(packet.payload);
      measure::ProbeReply reply;
      reply.seq = probe.seq;
      reply.echo_sender_local_time = probe.sender_local_time;
      reply.replica_local_time = local_now();
      send(packet.src, reply);
    }
  }
};

TEST(Node, AttachRegistersReceiver) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  EchoNode a(NodeId{0}, 0, network);
  EchoNode b(NodeId{1}, 0, network);
  a.attach();
  b.attach();
  measure::Probe p;
  p.seq = 1;
  a.send(NodeId{1}, p);
  simulator.run();
  EXPECT_EQ(b.received, 1);
  EXPECT_EQ(b.last_from, NodeId{0});
  EXPECT_EQ(a.received, 1);  // the echo reply
}

TEST(Node, DoubleAttachThrows) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  EchoNode a(NodeId{0}, 0, network);
  a.attach();
  EXPECT_THROW(a.attach(), std::logic_error);
}

TEST(Node, LocalNowAppliesClock) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  EchoNode a(NodeId{0}, 0, network, sim::LocalClock{milliseconds(7), 0.0});
  a.attach();
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_EQ(a.true_now(), TimePoint::epoch() + seconds(1));
  EXPECT_EQ(a.local_now(), TimePoint::epoch() + seconds(1) + milliseconds(7));
}

TEST(Node, AfterSchedulesOnSimulator) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  EchoNode a(NodeId{0}, 0, network);
  a.attach();
  bool ran = false;
  a.after(milliseconds(5), [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(simulator.now(), TimePoint::epoch() + milliseconds(5));
}

// RepeatingTimer over the simulator's Context (net::Network): the periodic
// timer every node and the harness timeline sampler use.
TEST(RepeatingTimer, FiresAtInterval) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  RepeatingTimer timer;
  int ticks = 0;
  timer.start(network, milliseconds(10), milliseconds(10), [&] { ++ticks; });
  simulator.run_until(TimePoint::epoch() + milliseconds(100));
  EXPECT_EQ(ticks, 10);
}

TEST(RepeatingTimer, StopEndsFiring) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  RepeatingTimer timer;
  int ticks = 0;
  timer.start(network, milliseconds(10), milliseconds(10), [&] {
    if (++ticks == 3) timer.stop();
  });
  simulator.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(timer.running());
}

TEST(RepeatingTimer, RestartCancelsPrevious) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  RepeatingTimer timer;
  int a = 0, b = 0;
  timer.start(network, milliseconds(10), milliseconds(10), [&] { ++a; });
  timer.start(network, milliseconds(10), milliseconds(10), [&] { ++b; });
  simulator.run_until(TimePoint::epoch() + milliseconds(55));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 5);
}

TEST(RepeatingTimer, InitialDelayDiffersFromInterval) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  RepeatingTimer timer;
  std::vector<TimePoint> fires;
  timer.start(network, Duration::zero(), milliseconds(20),
              [&] { fires.push_back(simulator.now()); });
  simulator.run_until(TimePoint::epoch() + milliseconds(50));
  ASSERT_EQ(fires.size(), 3u);  // 0, 20, 40
  EXPECT_EQ(fires[0], TimePoint::epoch());
  EXPECT_EQ(fires[2], TimePoint::epoch() + milliseconds(40));
}

// Keyed wait spans. The test nodes expose Node's wait API and set the
// active span by hand, as a traced handler or a client proposal would.
constexpr obs::TraceId kTrace = 77;

class WaitNode : public Node {
 public:
  using Node::Node;
  using Node::close_wait;
  using Node::open_wait;
  void activate(obs::SpanId span) { set_active_span(obs::TraceContext{kTrace, span}); }

 protected:
  void on_packet(const net::Packet&) override {}
};

/// A lone replica with nothing to recover, so restart() rejoins at once.
class WaitReplica : public recovery::Replica {
 public:
  WaitReplica(NodeId id, Context& context)
      : recovery::Replica(id, 0, context, {id}, "test.executed", sim::LocalClock{}) {}
  using Node::open_wait;
  void activate(obs::SpanId span) { set_active_span(obs::TraceContext{kTrace, span}); }
  [[nodiscard]] std::size_t retained_entries() const override { return 0; }

 protected:
  void on_message(const net::Packet&) override {}
  void recover() override {}
  void fill_catchup(recovery::CatchupReply&) const override {}
  void merge_catchup(const recovery::CatchupReply&, std::size_t) override {}
};

TimePoint at_ms(std::int64_t ms) { return TimePoint::epoch() + milliseconds(ms); }

TEST(KeyedWait, SpansOffOpenAndCloseWriteNothing) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  WaitNode node(NodeId{0}, 0, network);  // built before the store is bound: spans off
  obs::SpanStore store;
  network.bind_obs(obs::Sink{.spans = &store});
  node.activate(store.open_root(kTrace, NodeId{0}, "command", at_ms(0)));
  node.open_wait("wait", 1);
  simulator.run_until(at_ms(5));
  node.close_wait("wait", 1);
  EXPECT_EQ(store.spans().size(), 1u);  // the root only
}

TEST(KeyedWait, SecondOpenKeepsFirstSpan) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  obs::SpanStore store;
  network.bind_obs(obs::Sink{.spans = &store});
  WaitNode node(NodeId{0}, 0, network);
  const obs::SpanId root = store.open_root(kTrace, NodeId{0}, "command", at_ms(0));
  node.activate(root);
  node.open_wait("wait", 1);
  simulator.run_until(at_ms(5));
  node.open_wait("wait", 1);
  simulator.run_until(at_ms(10));
  node.close_wait("wait", 1);
  ASSERT_EQ(store.spans().size(), 2u);
  const obs::Span& wait = store.spans()[1];
  EXPECT_STREQ(wait.name, "wait");
  EXPECT_EQ(wait.parent, root);
  EXPECT_EQ(wait.node, NodeId{0});
  EXPECT_EQ(wait.begin, at_ms(0));
  EXPECT_EQ(wait.end, at_ms(10));
}

TEST(KeyedWait, SameKeyUnderTwoNamesGivesTwoWaits) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  obs::SpanStore store;
  network.bind_obs(obs::Sink{.spans = &store});
  WaitNode node(NodeId{0}, 0, network);
  node.activate(store.open_root(kTrace, NodeId{0}, "command", at_ms(0)));
  node.open_wait("quorum", RequestId{NodeId{3}, 9});
  node.open_wait("recovery", RequestId{NodeId{3}, 9});
  simulator.run_until(at_ms(5));
  node.close_wait("quorum", RequestId{NodeId{3}, 9});
  simulator.run_until(at_ms(8));
  node.close_wait("recovery", RequestId{NodeId{3}, 9});
  ASSERT_EQ(store.spans().size(), 3u);
  EXPECT_STREQ(store.spans()[1].name, "quorum");
  EXPECT_EQ(store.spans()[1].end, at_ms(5));
  EXPECT_STREQ(store.spans()[2].name, "recovery");
  EXPECT_EQ(store.spans()[2].end, at_ms(8));
}

TEST(KeyedWait, CloseStampsEndTimeOnce) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  obs::SpanStore store;
  network.bind_obs(obs::Sink{.spans = &store});
  WaitNode node(NodeId{0}, 0, network);
  node.activate(store.open_root(kTrace, NodeId{0}, "command", at_ms(0)));
  node.open_wait("wait", std::int64_t{-4});
  node.open_wait("wait", std::uint64_t{4});
  simulator.run_until(at_ms(30));
  node.close_wait("wait", std::int64_t{-4});
  EXPECT_EQ(store.spans()[1].end, at_ms(30));
  EXPECT_EQ(store.spans()[2].end, at_ms(0));  // another key: still open
  simulator.run_until(at_ms(40));
  node.close_wait("wait", std::int64_t{-4});  // no longer open: no-op
  EXPECT_EQ(store.spans()[1].end, at_ms(30));
}

TEST(KeyedWait, RestartClosesEveryOpenWaitAtTheRestartInstant) {
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  obs::SpanStore store;
  network.bind_obs(obs::Sink{.spans = &store});
  recovery::DurableStore durable;
  WaitReplica replica(NodeId{0}, network);
  replica.attach();
  replica.enable_durability(durable);
  replica.activate(store.open_root(kTrace, NodeId{0}, "command", at_ms(0)));
  replica.open_wait("quorum", 1);
  replica.open_wait("recovery", 2);
  simulator.run_until(at_ms(25));
  replica.restart();
  ASSERT_EQ(store.spans().size(), 3u);
  EXPECT_EQ(store.spans()[1].end, at_ms(25));
  EXPECT_EQ(store.spans()[2].end, at_ms(25));
  // The restart forgot the waits: the same key opens a fresh one.
  replica.open_wait("quorum", 1);
  EXPECT_EQ(store.spans().size(), 4u);
}

}  // namespace
}  // namespace domino::rpc

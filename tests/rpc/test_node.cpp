#include "rpc/node.h"

#include <gtest/gtest.h>

#include "measure/messages.h"
#include "net/network.h"

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

}  // namespace
}  // namespace domino::rpc

// rpc::Node::dispatch: the one decode point every protocol node receives
// through. A node lists the message structs it takes; the envelope tag is
// matched against each struct's kType, the body is decoded once, and a
// malformed payload is dropped and counted instead of throwing.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "measure/messages.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "rpc/node.h"

namespace domino::rpc {
namespace {

net::Topology one_dc() { return net::Topology{{"A"}, {{0.0}}}; }

class DispatchNode : public Node {
 public:
  using Node::dispatch;
  using Node::Node;

  int probes = 0;
  int replies = 0;
  measure::Probe last_probe;
  NodeId last_from;

  bool take(const net::Packet& packet) {
    return dispatch<measure::ProbeReply, measure::Probe>(
        packet, [this](const net::Packet& p, const auto& msg) {
          if constexpr (std::is_same_v<std::decay_t<decltype(msg)>, measure::Probe>) {
            ++probes;
            last_probe = msg;
            last_from = p.src;
          } else {
            ++replies;
          }
        });
  }

 protected:
  void on_packet(const net::Packet& packet) override { take(packet); }
};

net::Packet packet_from(NodeId src, wire::Payload payload) {
  net::Packet packet;
  packet.src = src;
  packet.dst = NodeId{0};
  packet.payload = std::move(payload);
  return packet;
}

// A struct outside the list, with a body no listed struct could decode.
struct Unlisted {
  static constexpr wire::MessageType kType = wire::MessageType::kDmCommit;
  std::string text;
  static auto fields(auto& m) { return std::tie(m.text); }
};

measure::Probe sample_probe() {
  measure::Probe probe;
  probe.seq = 42;
  probe.sender_local_time = TimePoint::epoch() + milliseconds(17);
  return probe;
}

struct Dispatch : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  DispatchNode node{NodeId{0}, 0, network};
};

TEST_F(Dispatch, MatchingHandlerGetsDecodedStructAndSource) {
  EXPECT_TRUE(node.take(packet_from(NodeId{3}, wire::encode_message(sample_probe()))));
  EXPECT_EQ(node.probes, 1);
  EXPECT_EQ(node.replies, 0);
  EXPECT_EQ(node.last_probe.seq, 42u);
  EXPECT_EQ(node.last_probe.sender_local_time, TimePoint::epoch() + milliseconds(17));
  EXPECT_EQ(node.last_from, NodeId{3});
  EXPECT_EQ(node.malformed_dropped(), 0u);
}

TEST_F(Dispatch, UnlistedTagReturnsFalseAndCallsNothing) {
  EXPECT_FALSE(node.take(packet_from(NodeId{3}, wire::encode_message(Unlisted{"x"}))));
  EXPECT_EQ(node.probes + node.replies, 0);
  EXPECT_EQ(node.malformed_dropped(), 0u);
}

TEST_F(Dispatch, TracedPayloadReachesTheSameHandlerWithTheSameStruct) {
  const wire::Payload traced = wire::encode_message_traced(
      sample_probe(), wire::TraceContextWire{.trace_id = 9, .span_id = 300});
  ASSERT_NE(traced, wire::encode_message(sample_probe()));
  EXPECT_TRUE(node.take(packet_from(NodeId{5}, traced)));
  EXPECT_EQ(node.probes, 1);
  EXPECT_EQ(node.last_probe.seq, 42u);
  EXPECT_EQ(node.last_probe.sender_local_time, TimePoint::epoch() + milliseconds(17));
  EXPECT_EQ(node.last_from, NodeId{5});
}

TEST_F(Dispatch, TruncatedBodyIsDroppedNotThrown) {
  wire::Payload payload = wire::encode_message(sample_probe());
  payload.pop_back();
  bool handled = false;
  EXPECT_NO_THROW(handled = node.take(packet_from(NodeId{3}, payload)));
  EXPECT_TRUE(handled);  // the tag matched: the payload is consumed, not passed on
  EXPECT_EQ(node.probes + node.replies, 0);
  EXPECT_EQ(node.malformed_dropped(), 1u);
}

TEST_F(Dispatch, PayloadTooShortForATagIsDropped) {
  for (const wire::Payload& payload : {wire::Payload{}, wire::Payload{0x01}}) {
    bool handled = false;
    EXPECT_NO_THROW(handled = node.take(packet_from(NodeId{3}, payload)));
    EXPECT_TRUE(handled);
  }
  EXPECT_EQ(node.probes + node.replies, 0);
  EXPECT_EQ(node.malformed_dropped(), 2u);
}

TEST_F(Dispatch, HandlerWireErrorPropagates) {
  // Only the listed struct's own decode is guarded; a decode nested inside
  // the handler (catch-up aux bytes, durable records) still throws.
  const net::Packet packet = packet_from(NodeId{3}, wire::encode_message(sample_probe()));
  const auto throwing = [](const net::Packet&, const measure::Probe&) {
    throw wire::WireError("nested decode");
  };
  EXPECT_THROW(node.dispatch<measure::Probe>(packet, throwing), wire::WireError);
  EXPECT_EQ(node.malformed_dropped(), 0u);
}

TEST(DispatchReceiver, CountsDropsInTheRegistryOnlyOnceOneHappens) {
  // With metrics bound the receiver peeks the tag before dispatch, so it is
  // the receiver that drops a payload too short for one.
  sim::Simulator simulator;
  net::Network network(simulator, one_dc(), 1);
  obs::MetricsRegistry metrics;
  network.bind_obs(obs::Sink{.metrics = &metrics});
  DispatchNode sender(NodeId{1}, 0, network);
  DispatchNode node(NodeId{0}, 0, network);
  sender.attach();
  node.attach();

  network.send(NodeId{1}, NodeId{0}, wire::encode_message(sample_probe()));
  simulator.run();
  EXPECT_EQ(node.probes, 1);
  EXPECT_EQ(metrics.find_counter("rpc.malformed_dropped"), nullptr);

  wire::Payload truncated = wire::encode_message(sample_probe());
  truncated.pop_back();
  network.send(NodeId{1}, NodeId{0}, wire::Payload{0x01});
  network.send(NodeId{1}, NodeId{0}, truncated);
  simulator.run();
  EXPECT_EQ(node.probes, 1);
  EXPECT_EQ(node.malformed_dropped(), 2u);
  const obs::Counter* dropped = metrics.find_counter("rpc.malformed_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 2u);
}

}  // namespace
}  // namespace domino::rpc

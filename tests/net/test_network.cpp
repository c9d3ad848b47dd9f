#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace domino::net {
namespace {

Topology two_dc() {
  return Topology{{"A", "B"}, {{0.0, 10.0}, {10.0, 0.0}}};
}

wire::Payload payload_of(std::uint8_t tag) { return wire::Payload{tag}; }

struct Fixture {
  sim::Simulator simulator;
  Network network;
  std::vector<std::pair<NodeId, std::uint8_t>> delivered;  // (dst, first byte)
  std::vector<TimePoint> delivery_times;

  explicit Fixture(Topology topo = two_dc(), std::uint64_t seed = 1)
      : network(simulator, std::move(topo), seed) {}

  void add_node(NodeId id, std::size_t dc) {
    network.register_node(id, dc, [this, id](const Packet& p) {
      delivered.emplace_back(id, p.payload.empty() ? 0 : p.payload[0]);
      delivery_times.push_back(simulator.now());
    });
  }
};

TEST(Network, DeliversWithLinkDelay) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(7));
  f.simulator.run();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].first, NodeId{1});
  EXPECT_EQ(f.delivered[0].second, 7);
  // Default links are constant OWD = RTT/2 = 5 ms.
  EXPECT_EQ(f.delivery_times[0], TimePoint::epoch() + milliseconds(5));
}

TEST(Network, IntraDcDeliveryIsFast) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 0);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  ASSERT_EQ(f.delivery_times.size(), 1u);
  EXPECT_EQ(f.delivery_times[0], TimePoint::epoch() + microseconds(250));
}

TEST(Network, SelfSendWorks) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.network.send(NodeId{0}, NodeId{0}, payload_of(9));
  f.simulator.run();
  ASSERT_EQ(f.delivered.size(), 1u);
}

TEST(Network, FifoPerChannelEvenWithJitter) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  // Heavy jitter would reorder without the FIFO clamp.
  JitterParams p;
  p.jitter_sigma = 2.5;
  p.spike_prob = 0.05;
  f.network.use_default_links(p);
  for (std::uint8_t i = 0; i < 100; ++i) {
    f.network.send(NodeId{0}, NodeId{1}, payload_of(i));
  }
  f.simulator.run();
  ASSERT_EQ(f.delivered.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) EXPECT_EQ(f.delivered[i].second, i);
  // Delivery times strictly increase on a FIFO channel.
  for (std::size_t i = 1; i < f.delivery_times.size(); ++i) {
    EXPECT_GT(f.delivery_times[i], f.delivery_times[i - 1]);
  }
}

TEST(Network, IndependentChannelsCanReorder) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 0);
  f.add_node(NodeId{2}, 1);
  // Give 0->dc1 a bigger delay than 1->dc1 by scheduling order: messages
  // from different sources are not FIFO-constrained relative to each other.
  f.network.send(NodeId{0}, NodeId{2}, payload_of(1));
  f.network.send(NodeId{1}, NodeId{2}, payload_of(2));
  f.simulator.run();
  EXPECT_EQ(f.delivered.size(), 2u);
}

TEST(Network, CrashedDestinationDrops) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.crash(NodeId{1});
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.network.packets_dropped(), 1u);
}

TEST(Network, CrashedSourceDrops) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.crash(NodeId{0});
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  EXPECT_TRUE(f.delivered.empty());
}

TEST(Network, RecoverRestoresDelivery) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.crash(NodeId{1});
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.network.recover(NodeId{1});
  f.network.send(NodeId{0}, NodeId{1}, payload_of(2));
  f.simulator.run();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, 2);
}

TEST(Network, CrashMidFlightDropsAtDelivery) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.schedule_after(milliseconds(1), [&] { f.network.crash(NodeId{1}); });
  f.simulator.run();
  EXPECT_TRUE(f.delivered.empty());
}

TEST(Network, ReceiveServiceTimeSerializesDelivery) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.set_receive_service_time(NodeId{1}, milliseconds(2));
  for (int i = 0; i < 5; ++i) f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  ASSERT_EQ(f.delivery_times.size(), 5u);
  // All arrive at ~5 ms; the CPU then processes one every 2 ms.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GE(f.delivery_times[i] - f.delivery_times[i - 1], milliseconds(2));
  }
  EXPECT_GE(f.delivery_times[4], TimePoint::epoch() + milliseconds(5 + 10));
}

TEST(Network, EgressBandwidthAddsSerializationDelay) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  // 1 kbit/s: a ~65-byte frame takes ~0.5 s to serialize.
  f.network.set_egress_bandwidth_bps(NodeId{0}, 1000.0);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  ASSERT_EQ(f.delivery_times.size(), 1u);
  EXPECT_GT(f.delivery_times[0], TimePoint::epoch() + milliseconds(400));
}

TEST(Network, TrafficCountersAdvance) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  EXPECT_EQ(f.network.packets_sent(), 1u);
  EXPECT_EQ(f.network.bytes_sent(), 1 + kFrameOverheadBytes);
}

TEST(Network, DuplicateRegistrationThrows) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  EXPECT_THROW(f.network.register_node(NodeId{0}, 0, [](const Packet&) {}),
               std::invalid_argument);
}

TEST(Network, UnknownNodeThrows) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  EXPECT_THROW(f.network.send(NodeId{0}, NodeId{9}, payload_of(1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(f.network.dc_of(NodeId{9})), std::out_of_range);
}

TEST(Network, LinkModelOverride) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.set_link_model(0, 1, std::make_unique<ConstantLatency>(milliseconds(99)));
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  ASSERT_EQ(f.delivery_times.size(), 1u);
  EXPECT_EQ(f.delivery_times[0], TimePoint::epoch() + milliseconds(99));
}

TEST(Network, AsymmetricLinksPossible) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.set_link_model(0, 1, std::make_unique<ConstantLatency>(milliseconds(2)));
  f.network.set_link_model(1, 0, std::make_unique<ConstantLatency>(milliseconds(8)));
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  const TimePoint fwd = f.delivery_times[0];
  f.network.send(NodeId{1}, NodeId{0}, payload_of(2));
  f.simulator.run();
  EXPECT_EQ(fwd - TimePoint::epoch(), milliseconds(2));
  EXPECT_EQ(f.delivery_times[1] - fwd, milliseconds(8));
}

}  // namespace
}  // namespace domino::net

#include "measure/prober.h"

#include <gtest/gtest.h>

#include "measure/estimator.h"
#include "net/network.h"

namespace domino::measure {
namespace {

net::Topology three_dc() {
  return net::Topology{{"A", "B", "C"},
                       {{0.0, 20.0, 60.0}, {20.0, 0.0, 40.0}, {60.0, 40.0, 0.0}}};
}

/// Replica that answers probes with a fixed replication-latency estimate.
class ProbeResponder : public rpc::Node {
 public:
  ProbeResponder(NodeId id, std::size_t dc, net::Network& network, Duration lr,
                 sim::LocalClock clock = {})
      : rpc::Node(id, dc, network, clock), lr_(lr) {}

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kProbe) return;
    const auto probe = wire::decode_message<Probe>(packet.payload);
    send(packet.src, Prober::make_reply(probe, local_now(), lr_));
  }

 private:
  Duration lr_;
};

/// Client node hosting a Prober.
class ProbingClient : public rpc::Node {
 public:
  ProbingClient(NodeId id, std::size_t dc, net::Network& network,
                std::vector<NodeId> targets, ProberConfig config = {},
                sim::LocalClock clock = {})
      : rpc::Node(id, dc, network, clock), prober(*this, std::move(targets), config) {}

  Prober prober;

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kProbeReply) return;
    prober.on_probe_reply(packet.src, wire::decode_message<ProbeReply>(packet.payload));
  }
};

struct ProberFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, three_dc(), 1};
  ProbeResponder r1{NodeId{1}, 1, network, milliseconds(40)};
  ProbeResponder r2{NodeId{2}, 2, network, milliseconds(80)};
  ProbingClient client{NodeId{100}, 0, network, {NodeId{1}, NodeId{2}}};

  void SetUp() override {
    r1.attach();
    r2.attach();
    client.attach();
    client.prober.start();
  }
};

TEST_F(ProberFixture, MeasuresRttPerTarget) {
  simulator.run_until(TimePoint::epoch() + seconds(2));
  // RTT A<->B = 20 ms, A<->C = 60 ms (constant links).
  EXPECT_NEAR(client.prober.rtt_estimate(NodeId{1}).millis(), 20.0, 0.5);
  EXPECT_NEAR(client.prober.rtt_estimate(NodeId{2}).millis(), 60.0, 0.5);
}

TEST_F(ProberFixture, MeasuresOwdWithoutSkew) {
  simulator.run_until(TimePoint::epoch() + seconds(2));
  EXPECT_NEAR(client.prober.owd_estimate(NodeId{1}).millis(), 10.0, 0.5);
  EXPECT_NEAR(client.prober.owd_estimate(NodeId{2}).millis(), 30.0, 0.5);
}

TEST_F(ProberFixture, TracksReplicationLatency) {
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_EQ(client.prober.replication_latency_of(NodeId{1}), milliseconds(40));
  EXPECT_EQ(client.prober.replication_latency_of(NodeId{2}), milliseconds(80));
}

TEST_F(ProberFixture, UnmeasuredTargetReportsMax) {
  EXPECT_EQ(client.prober.rtt_estimate(NodeId{1}), Duration::max());  // before any run
}

TEST_F(ProberFixture, FailedTargetDetectedByTimeout) {
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_FALSE(client.prober.looks_failed(NodeId{1}));
  network.crash(NodeId{1});
  simulator.run_until(TimePoint::epoch() + seconds(2));
  EXPECT_TRUE(client.prober.looks_failed(NodeId{1}));
  EXPECT_EQ(client.prober.rtt_estimate(NodeId{1}), Duration::max());
  // The healthy target is unaffected.
  EXPECT_FALSE(client.prober.looks_failed(NodeId{2}));
}

TEST_F(ProberFixture, ProbeCountMatchesRate) {
  simulator.run_until(TimePoint::epoch() + seconds(1) - milliseconds(1));
  client.prober.stop();
  // 10 ms interval, 2 targets, first probe at t=0: 100 rounds in [0, 999].
  EXPECT_EQ(client.prober.probes_sent(), 200u);
}

TEST(Prober, OwdIncludesClockSkew) {
  // A replica whose clock is 5 ms ahead inflates the measured OWD by 5 ms —
  // by design (Section 5.4 folds skew into arrival predictions).
  sim::Simulator simulator;
  net::Network network(simulator, three_dc(), 1);
  ProbeResponder skewed(NodeId{1}, 1, network, Duration::zero(),
                        sim::LocalClock{milliseconds(5), 0.0});
  ProbingClient client(NodeId{100}, 0, network, {NodeId{1}});
  skewed.attach();
  client.attach();
  client.prober.start();
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_NEAR(client.prober.owd_estimate(NodeId{1}).millis(), 15.0, 0.5);
  // RTT is unaffected by skew.
  EXPECT_NEAR(client.prober.rtt_estimate(NodeId{1}).millis(), 20.0, 0.5);
}

TEST(Prober, SelfTargetIsZero) {
  sim::Simulator simulator;
  net::Network network(simulator, three_dc(), 1);
  ProbingClient client(NodeId{100}, 0, network, {NodeId{100}});
  client.attach();
  EXPECT_EQ(client.prober.rtt_estimate(NodeId{100}), Duration::zero());
  EXPECT_EQ(client.prober.owd_estimate(NodeId{100}), Duration::zero());
}

}  // namespace
}  // namespace domino::measure

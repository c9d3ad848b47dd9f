#include "measure/proxy.h"

#include <gtest/gtest.h>

#include "measure/estimator.h"
#include "net/network.h"

namespace domino::measure {
namespace {

net::Topology three_dc() {
  return net::Topology{{"A", "B", "C"},
                       {{0.0, 20.0, 60.0}, {20.0, 0.0, 40.0}, {60.0, 40.0, 0.0}}};
}

class Responder : public rpc::Node {
 public:
  Responder(NodeId id, std::size_t dc, net::Network& network, Duration lr)
      : rpc::Node(id, dc, network), lr_(lr) {}

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kProbe) return;
    const auto probe = wire::decode_message<Probe>(packet.payload);
    send(packet.src, Prober::make_reply(probe, local_now(), lr_));
  }

 private:
  Duration lr_;
};

class FeedClient : public rpc::Node {
 public:
  FeedClient(NodeId id, std::size_t dc, net::Network& network, NodeId proxy)
      : rpc::Node(id, dc, network), proxy_(proxy), feed(*this) {}

  void start_polling(Duration interval) {
    timer_.start(context(), Duration::zero(), interval,
                 [this] { send(proxy_, ProxyQuery{}); });
  }

  NodeId proxy_;
  ProxyFeed feed;

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) != wire::MessageType::kProxyReport) return;
    feed.update(wire::decode_message<ProxyReport>(packet.payload));
  }

 private:
  rpc::RepeatingTimer timer_;
};

struct ProxyFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, three_dc(), 1};
  Responder r1{NodeId{1}, 1, network, milliseconds(40)};
  Responder r2{NodeId{2}, 2, network, milliseconds(80)};
  Proxy proxy{NodeId{50}, 0, network, {NodeId{1}, NodeId{2}}};
  FeedClient client{NodeId{100}, 0, network, NodeId{50}};

  void SetUp() override {
    r1.attach();
    r2.attach();
    proxy.attach();
    client.attach();
    proxy.start();
    client.start_polling(milliseconds(10));
  }
};

TEST_F(ProxyFixture, ReportRoundTripsOnWire) {
  ProxyReport report;
  report.percentile = 95.0;
  report.entries.push_back({NodeId{1}, milliseconds(20), milliseconds(10),
                            milliseconds(40), false});
  report.entries.push_back({NodeId{2}, Duration::max(), Duration::max(), Duration::max(),
                            true});
  const auto payload = wire::encode_message(report);
  const auto decoded = wire::decode_message<ProxyReport>(payload);
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.percentile, 95.0);
  EXPECT_EQ(decoded.entries[0].rtt, milliseconds(20));
  EXPECT_TRUE(decoded.entries[1].failed);
}

TEST_F(ProxyFixture, FeedMatchesDirectMeasurement) {
  simulator.run_until(TimePoint::epoch() + seconds(2));
  // Proxy in A measures B at 20 ms, C at 60 ms; the co-located client's
  // feed reports the same values.
  EXPECT_NEAR(client.feed.rtt_estimate(NodeId{1}, 95).millis(), 20.0, 0.5);
  EXPECT_NEAR(client.feed.rtt_estimate(NodeId{2}, 95).millis(), 60.0, 0.5);
  EXPECT_NEAR(client.feed.owd_estimate(NodeId{1}, 95).millis(), 10.0, 0.5);
  EXPECT_EQ(client.feed.replication_latency_of(NodeId{1}), milliseconds(40));
  EXPECT_FALSE(client.feed.looks_failed(NodeId{1}));
}

TEST_F(ProxyFixture, EstimatorsWorkOverFeed) {
  simulator.run_until(TimePoint::epoch() + seconds(2));
  // LatDM over the feed = min(E_r + L_r) = min(20+40, 60+80) = 60.
  const auto dm = estimate_dm_latency(client.feed, {NodeId{1}, NodeId{2}});
  EXPECT_NEAR(dm.latency.millis(), 60.0, 1.0);
  EXPECT_EQ(dm.leader, NodeId{1});
}

TEST_F(ProxyFixture, StaleFeedReportsFailed) {
  simulator.run_until(TimePoint::epoch() + seconds(1));
  EXPECT_TRUE(client.feed.fresh());
  network.crash(NodeId{50});  // proxy dies; reports stop
  simulator.run_until(TimePoint::epoch() + seconds(3));
  EXPECT_FALSE(client.feed.fresh());
  EXPECT_TRUE(client.feed.looks_failed(NodeId{1}));
  EXPECT_EQ(client.feed.rtt_estimate(NodeId{1}, 95), Duration::max());
}

TEST_F(ProxyFixture, CrashedReplicaFlaggedThroughProxy) {
  simulator.run_until(TimePoint::epoch() + seconds(1));
  network.crash(NodeId{2});
  simulator.run_until(TimePoint::epoch() + seconds(3));
  EXPECT_TRUE(client.feed.looks_failed(NodeId{2}));
  EXPECT_FALSE(client.feed.looks_failed(NodeId{1}));
}

TEST_F(ProxyFixture, ProbeTrafficIndependentOfClientCount) {
  // Ten clients polling one proxy: the proxy still sends exactly
  // (replica count) probes per interval; without the proxy each client
  // would probe every replica itself.
  std::vector<std::unique_ptr<FeedClient>> clients;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(std::make_unique<FeedClient>(NodeId{200 + (std::uint32_t)i}, 0,
                                                   network, NodeId{50}));
    clients.back()->attach();
    clients.back()->start_polling(milliseconds(10));
  }
  simulator.run_until(TimePoint::epoch() + seconds(1));
  // Probes from the proxy: 2 targets * ~100 rounds.
  EXPECT_NEAR(static_cast<double>(proxy.prober().probes_sent()), 200.0, 10.0);
  EXPECT_GT(proxy.queries_served(), 1000u);  // 11 clients * 100 polls
  for (const auto& c : clients) EXPECT_TRUE(c->feed.fresh());
}

}  // namespace
}  // namespace domino::measure

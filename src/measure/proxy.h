// Measurement proxy (paper Section 5.6).
//
// "If there are many clients in one datacenter, we can reduce the number of
// probing messages by having one dedicated proxy to measure and estimate
// the network delays to replicas. A client (or a replica) in the datacenter
// can query the proxy for delay estimation."
//
// Proxy: a node that probes every replica and answers ProxyQuery messages
// with a snapshot of its per-replica estimates (RTT and arrival-offset at
// its configured percentile, the piggybacked L_r, and a failure flag).
//
// ProxyFeed: the client-side LatencyView backed by those snapshots. The
// co-location assumption matters: the proxy's arrival-offset estimates
// embed the *proxy's* clock, so clients sharing its datacenter (and its
// NTP source) inherit predictions that are off by only the intra-DC skew.
#pragma once

#include <unordered_map>
#include <vector>

#include "measure/latency_view.h"
#include "measure/prober.h"
#include "rpc/node.h"
#include "wire/message.h"

namespace domino::measure {

struct ProxyQuery {
  static constexpr wire::MessageType kType = wire::MessageType::kProxyQuery;
  static auto fields(auto&) { return std::tie(); }
};

struct ProxyReport {
  static constexpr wire::MessageType kType = wire::MessageType::kProxyReport;

  struct Entry {
    NodeId replica;
    Duration rtt = Duration::max();
    Duration owd = Duration::max();
    Duration replication_latency = Duration::max();
    bool failed = true;
    bool stale = true;  // proxy's prober has not heard from it recently

    static auto fields(auto& m) {
      return std::tie(m.replica, m.rtt, m.owd, m.replication_latency, m.failed, m.stale);
    }
  };
  double percentile = 95.0;
  std::vector<Entry> entries;

  static auto fields(auto& m) { return std::tie(m.percentile, m.entries); }
};
static_assert(wire::min_size<ProxyReport::Entry>() == 9);

/// A dedicated measurement node: one per datacenter instead of one prober
/// per client. Sends (2f+1)R probes per second total, independent of the
/// client count.
class Proxy : public rpc::Node {
 public:
  Proxy(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
        ProberConfig config = {}, sim::LocalClock clock = sim::LocalClock{});

  void start() { prober_.start(); }

  [[nodiscard]] const Prober& prober() const { return prober_; }
  [[nodiscard]] std::uint64_t queries_served() const { return queries_served_; }

  /// Build the snapshot a query gets right now.
  [[nodiscard]] ProxyReport snapshot() const;

 protected:
  void on_packet(const net::Packet& packet) override;

 private:
  void handle(const net::Packet& packet, const ProbeReply& reply);
  void handle(const net::Packet& packet, const ProxyQuery& query);

  std::vector<NodeId> replicas_;
  Prober prober_;
  std::uint64_t queries_served_ = 0;
};

/// Client-side view over proxy snapshots, at the percentile the proxy's
/// prober is configured with (which the snapshot was computed at).
class ProxyFeed final : public LatencyView {
 public:
  /// @param owner used for time (staleness checks).
  /// @param staleness a snapshot older than this marks all targets failed.
  ProxyFeed(rpc::Node& owner, Duration staleness = milliseconds(500))
      : owner_(owner), staleness_(staleness) {}

  void update(const ProxyReport& report);

  [[nodiscard]] Duration rtt_estimate(NodeId target) const override;
  [[nodiscard]] Duration owd_estimate(NodeId target) const override;
  [[nodiscard]] Duration replication_latency_of(NodeId target) const override;
  /// Stale when the snapshot itself is old, or the proxy's own prober
  /// flagged the replica stale in the last report.
  [[nodiscard]] bool is_stale(NodeId target) const override;

  [[nodiscard]] bool fresh() const;

 private:
  rpc::Node& owner_;
  Duration staleness_;
  std::unordered_map<NodeId, ProxyReport::Entry> table_;
  TimePoint last_update_;
  bool ever_updated_ = false;
};

}  // namespace domino::measure

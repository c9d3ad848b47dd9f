// Simulated wide-area network.
//
// The Network owns:
//   - the node registry (which datacenter each node lives in, and its
//     receive callback),
//   - one LatencyModel + RNG stream per directed datacenter pair,
//   - per node-pair FIFO channels (a message never overtakes an earlier
//     message on the same (src, dst) channel — the TCP ordering Domino
//     requires, Section 5.1),
//   - optional capacity modelling: per-node receive service time (CPU cost
//     per message) and egress bandwidth, used by the peak-throughput
//     experiment (Figure 13),
//   - a FaultInjector (net/fault.h): the single drop/deform decision point
//     for crash failures, directed link partitions, degradation epochs and
//     route changes.
//
// It is also the simulator's rpc::Context: protocol nodes constructed over a
// Network send, schedule and read time through it exactly as they would
// over net::tcp::TcpContext.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/fault.h"
#include "net/latency_model.h"
#include "net/packet.h"
#include "net/topology.h"
#include "obs/sink.h"
#include "rpc/context.h"
#include "sim/simulator.h"
#include "wire/codec.h"

namespace domino::net {

/// Wire-level framing overhead charged per packet on top of the payload,
/// roughly TCP/IP + HTTP2 framing of a small gRPC call.
inline constexpr std::size_t kFrameOverheadBytes = 64;

class Network final : public rpc::Context {
 public:
  Network(sim::Simulator& simulator, Topology topology, std::uint64_t seed);

  /// Place every directed datacenter link on a JitterLatency model with
  /// base = RTT/2 and the given jitter parameters.
  void use_default_links(const JitterParams& params);

  /// Override the model for one directed datacenter pair.
  void set_link_model(std::size_t from_dc, std::size_t to_dc,
                      std::unique_ptr<LatencyModel> model);

  [[nodiscard]] LatencyModel& link_model(std::size_t from_dc, std::size_t to_dc);

  /// Register a node in a datacenter. The receiver is invoked (through the
  /// simulator) when a packet is delivered.
  void register_node(NodeId id, std::size_t dc, Receiver receiver) override;

  [[nodiscard]] std::size_t dc_of(NodeId id) const;
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Send `payload` from `src` to `dst`. Self-sends are delivered with the
  /// intra-datacenter delay. Packets to/from crashed nodes are dropped.
  void send(NodeId src, NodeId dst, wire::Payload payload) override;

  void schedule(Duration delay, std::function<void()> fn) override {
    sim_.schedule_after(delay, std::move(fn));
  }
  [[nodiscard]] TimePoint now() const override { return sim_.now(); }

  /// Capacity modelling (all default off = infinitely fast).
  void set_receive_service_time(NodeId id, Duration per_message);
  void set_egress_bandwidth_bps(NodeId id, double bits_per_second);

  /// Crash-failure injection: a crashed node neither sends nor receives.
  /// Recovery resets the node's FIFO channel bookkeeping, so post-recovery
  /// packets are never delayed behind deliveries from before the crash.
  void crash(NodeId id) { fault_.crash(id); }
  void recover(NodeId id) { fault_.recover(id); }
  [[nodiscard]] bool is_crashed(NodeId id) const { return fault_.is_crashed(id); }

  /// The fault-injection state machine: partitions, degradation epochs,
  /// route changes, per-reason drop counters, and the fault/drop digest.
  [[nodiscard]] FaultInjector& fault() { return fault_; }
  [[nodiscard]] const FaultInjector& fault() const { return fault_; }

  /// Schedule a whole fault timeline on the simulator (declarative form
  /// used by harness::Scenario).
  void install_faults(const FaultSchedule& schedule) { fault_.install(schedule); }

  /// Amnesiac-restart hook: runs on every recover, after the FIFO channel
  /// reset. The harness wipes the recovered replica's volatile state here
  /// so it must replay its durable image and catch up from peers.
  void set_restart_hook(std::function<void(NodeId)> hook) {
    fault_.set_restart_hook(std::move(hook));
  }

  // Traffic statistics.
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return obs_dropped_.value(); }
  [[nodiscard]] std::uint64_t packets_dropped(DropReason reason) const {
    return fault_.drops(reason);
  }

  /// Attach an observability sink. Registers per-directed-datacenter-link
  /// message/byte counters and delivery-delay histograms, traces every
  /// packet send/deliver/drop, and is inherited by nodes constructed over
  /// this network (they read it through obs() at construction). Bind before
  /// constructing nodes so their handles resolve.
  void bind_obs(const obs::Sink& sink);
  [[nodiscard]] obs::Sink obs() const override { return obs_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  struct NodeInfo {
    std::size_t dc = 0;
    Receiver receiver;
    Duration rx_service = Duration::zero();  // per-message processing time
    double egress_bps = 0.0;                 // 0 = unlimited
    TimePoint rx_busy_until = TimePoint::epoch();
    TimePoint tx_busy_until = TimePoint::epoch();
  };

  struct ChannelKey {
    NodeId src, dst;
    bool operator<(const ChannelKey& o) const {
      if (src != o.src) return src < o.src;
      return dst < o.dst;
    }
  };

  struct LinkObs {
    obs::CounterHandle messages;
    obs::CounterHandle bytes;
    obs::HistogramHandle delay_ns;
  };

  NodeInfo& info(NodeId id);
  [[nodiscard]] const NodeInfo& info(NodeId id) const;
  void count_drop(DropReason reason, NodeId src, NodeId dst);
  /// Forget FIFO delivery state on every channel touching `id` (called on
  /// recovery; pre-crash deliveries must not delay post-recovery traffic).
  void reset_channels_of(NodeId id);

  sim::Simulator& sim_;
  Topology topology_;
  Rng rng_;
  std::vector<std::vector<std::unique_ptr<LatencyModel>>> links_;  // [from][to]
  std::vector<std::vector<Rng>> link_rngs_;
  std::unordered_map<NodeId, NodeInfo> nodes_;
  std::map<ChannelKey, TimePoint> channel_last_delivery_;
  FaultInjector fault_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;

  obs::Sink obs_;
  std::vector<std::vector<LinkObs>> link_obs_;  // [from_dc][to_dc]
  obs::CounterHandle obs_dropped_;
};

}  // namespace domino::net

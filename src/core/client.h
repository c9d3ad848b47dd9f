// Domino client library (paper Sections 5.2, 5.4, 5.6).
//
// The client probes every replica (default every 10 ms), keeps sliding-
// window percentile estimates of RTTs and arrival offsets, and per request
// chooses the subsystem with the lower estimated commit latency:
//   LatDFP = D_q (q-th smallest RTT, q = supermajority),
//   LatDM  = min_r (E_r + L_r).
// A DFP proposal is stamped with the predicted supermajority arrival time
// plus an optional fixed additional delay (the Figure 9 / Figure 11 knob)
// and broadcast; the client itself is the fast-path learner and counts
// matching acceptances. DM requests go to the best leader.
#pragma once

#include <unordered_map>

#include "core/messages.h"
#include "measure/estimator.h"
#include "measure/prober.h"
#include "measure/proxy.h"
#include "measure/quorum.h"
#include "rpc/client_base.h"

namespace domino::core {

struct ClientConfig {
  measure::ProberConfig prober;
  /// Added to every DFP request timestamp (Section 5.4's slack against
  /// mispredictions; 0 by default as in the paper's commit-latency runs).
  Duration additional_delay = Duration::zero();
  /// Force one subsystem (used by tests and ablation benches).
  enum class Mode : std::uint8_t { kAuto, kDfpOnly, kDmOnly } mode = Mode::kAuto;

  /// Section 5.4's proposed feedback control ("part of our future work is
  /// to design a feedback control system that monitors DFP's fast path
  /// success rate and have clients adaptively adjust their request
  /// timestamps or switch between DFP and DM"): when enabled, the client
  /// tracks the fast-path success of its recent DFP requests and grows the
  /// additional delay while the rate is below a target, shrinking it once
  /// the fast path is healthy again; while the measured success rate is
  /// very low the client temporarily prefers DM even if DFP's estimate
  /// looks better (Client's kAdaptive* constants).
  bool adaptive = false;

  /// Section 5.6's probe-traffic reduction: when set, the client does not
  /// probe the replicas itself; it polls this co-located measurement proxy
  /// for delay estimates instead.
  NodeId proxy = NodeId::invalid();

  /// Section 5.3.3's collision avoidance for fixed client sets:
  /// "pre-sharding timestamps among the clients can be used to completely
  /// avoid collisions between client requests. For example, with only one
  /// thousand clients, each client can replace the three least significant
  /// digits in its timestamps with its ID." When > 0, the client replaces
  /// `ts mod timestamp_shard_space` with `client_id mod
  /// timestamp_shard_space`.
  std::uint32_t timestamp_shard_space = 0;
};

class Client : public rpc::ClientBase {
 public:
  Client(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
         ClientConfig config = {}, sim::LocalClock clock = sim::LocalClock{});

  /// For transports without datacenter placement (e.g. net::tcp::TcpContext):
  /// the same client at dc 0.
  Client(NodeId id, rpc::Context& context, std::vector<NodeId> replicas,
         ClientConfig config = {}, sim::LocalClock clock = sim::LocalClock{})
      : Client(id, /*dc=*/0, context, std::move(replicas), config, clock) {}

  /// Start probing (or proxy polling); call after attach() and before
  /// submitting load.
  void start() override;

  [[nodiscard]] const measure::Prober& prober() const { return prober_; }

  /// The latency estimates feeding this client's decisions: its own prober,
  /// or the proxy feed when ClientConfig::proxy is set.
  [[nodiscard]] const measure::LatencyView& view() const;

  struct Estimates {
    Duration dfp = Duration::max();
    Duration dm = Duration::max();
    NodeId dm_leader;
  };
  /// Current commit-latency estimates (harness taps this for Figure 12).
  [[nodiscard]] Estimates estimates() const;

  // Counters for experiments.
  [[nodiscard]] std::uint64_t dfp_chosen() const { return obs_dfp_chosen_.value(); }
  [[nodiscard]] std::uint64_t dm_chosen() const { return obs_dm_chosen_.value(); }
  [[nodiscard]] std::uint64_t dfp_fast_learns() const { return obs_fast_learns_.value(); }
  [[nodiscard]] std::uint64_t dfp_slow_replies() const { return obs_slow_replies_.value(); }
  /// Timed-out requests re-routed through DM (see on_request_timeout).
  [[nodiscard]] std::uint64_t dfp_failovers() const { return obs_failovers_.value(); }

  /// Extra timestamp slack currently applied by the adaptive controller.
  [[nodiscard]] Duration adaptive_extra_delay() const { return adaptive_extra_; }
  /// Fast-path success rate over the recent outcome window (1.0 if no
  /// outcomes recorded yet).
  [[nodiscard]] double recent_fast_rate() const;

 protected:
  void propose(const sm::Command& command) override;
  /// Failover path (requires ClientBase::set_request_timeout): a request
  /// that timed out — typically because a DFP coordinator or DM leader
  /// crashed mid-request — is abandoned on its original path and re-routed
  /// through DM to the best replica whose measurement feed is not stale.
  /// The probe feed doubles as a failure detector here (Section 5.8): a
  /// crashed replica stops answering probes, goes stale within a few probe
  /// intervals, and is skipped when picking the new DM leader.
  void on_request_timeout(const sm::Command& command, std::size_t attempt) override;
  void on_packet(const net::Packet& packet) override;
  /// Reconciliation point of the prediction audit: realized commit latency
  /// is exact here, so the DecisionRecord opened in propose() is finalized
  /// (error, oracle regret, misprediction attribution) exactly once.
  void on_committed(const RequestId& id, TimePoint sent_at, TimePoint committed_at) override;

 private:
  void handle(const net::Packet& packet, const measure::ProbeReply& reply) {
    prober_.on_probe_reply(packet.src, reply);
  }
  void handle(const net::Packet&, const measure::ProxyReport& report) {
    proxy_feed_.update(report);
  }
  void handle(const net::Packet& packet, const DfpAcceptNotice& notice);
  void handle(const net::Packet& packet, const DfpClientReply& reply);
  void handle(const net::Packet& packet, const DmClientReply& reply);
  void propose_dfp(const sm::Command& command);
  void propose_dm(const sm::Command& command, NodeId leader);
  /// The run-wide decision-record store, or null when prediction auditing
  /// is off (the default: zero overhead beyond one branch per site).
  [[nodiscard]] obs::PredictionAudit* audit() const { return obs_sink().predict; }
  /// First replica whose feed is not stale (falls back to replicas_.front()
  /// when everything looks stale, e.g. right after startup).
  [[nodiscard]] NodeId fallback_dm_leader() const;
  void record_dfp_outcome(bool fast);

  std::vector<NodeId> replicas_;
  ClientConfig config_;
  measure::Prober prober_;
  measure::ProxyFeed proxy_feed_;
  rpc::RepeatingTimer proxy_timer_;

  struct DfpPendingState {
    std::int64_t ts = 0;
    std::size_t accepts = 0;
  };
  std::unordered_map<RequestId, DfpPendingState> dfp_pending_;
  std::int64_t last_dfp_ts_ = 0;  // timestamps are unique per client

  // Adaptive feedback (ClientConfig::adaptive): the desired fast-path
  // success rate, the slack step per slow-path outcome (a fast one decays
  // it by a quarter step), the slack cap, and how many recent DFP outcomes
  // the rate covers (a ring buffer).
  static constexpr double kAdaptiveTarget = 0.9;
  static constexpr Duration kAdaptiveStep = milliseconds(1);
  static constexpr Duration kAdaptiveMaxExtra = milliseconds(16);
  static constexpr std::size_t kAdaptiveWindow = 32;
  std::vector<bool> outcomes_;
  std::size_t outcome_cursor_ = 0;
  Duration adaptive_extra_ = Duration::zero();

  void init_obs();
  obs::CounterHandle obs_dfp_chosen_;
  obs::CounterHandle obs_dm_chosen_;
  obs::CounterHandle obs_fast_learns_;
  obs::CounterHandle obs_slow_replies_;
  obs::CounterHandle obs_failovers_;
};

}  // namespace domino::core

// Domino replica: DFP acceptor, optional DFP coordinator, DM leader for its
// own lane, DM follower for every other lane — all over one interleaved
// GlobalLog (paper Section 5).
//
// Roles and duties:
//   * DFP acceptor: accept a client's timestamped proposal iff the local
//     clock has not passed the timestamp (empty positions below the clock
//     are optimistically no-op'd, Section 5.3.2); notify the client and the
//     coordinator.
//   * DFP coordinator (one distinguished replica): the learner for no-ops
//     and the recovery proposer for collisions (Section 5.3.3). It tracks
//     every replica's clock watermark (piggybacked on notices/heartbeats),
//     computes the committed DFP frontier — the supermajority-th smallest
//     watermark, capped by the earliest unresolved proposal — and
//     disseminates it on heartbeats. Requests whose position resolves as
//     no-op are re-proposed through the coordinator's DM lane ("The DFP
//     coordinator will propose the other request through Domino's
//     Mencius").
//   * DM leader: stamp client requests with now + predicted replication
//     latency (measured by the replica's own prober), replicate to a
//     majority, reply to the client (Section 5.5).
//   * Execution: drain the GlobalLog in global timestamp order
//     (Section 5.7).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interval_set.h"
#include "core/messages.h"
#include "log/global_log.h"
#include "measure/estimator.h"
#include "measure/prober.h"
#include "measure/quorum.h"
#include "recovery/replica.h"

namespace domino::core {

struct ReplicaConfig {
  Duration heartbeat_interval = milliseconds(10);
  measure::ProberConfig prober;
  /// Section 5.7's optimization: "Making every replica be a learner in DFP
  /// will reduce this delay." When true (default), acceptors broadcast
  /// their acceptance notices to every replica, and each replica both
  /// fast-commits positions locally and derives the committed-no-op
  /// frontier from directly received watermarks — saving one WAN hop of
  /// execution latency. When false, only the coordinator learns and
  /// disseminates outcomes.
  bool all_replicas_learn = true;
};

/// On restart() the replica replays its durable image, re-replicates
/// pending own-lane entries, and catches up from live peers. Measurement
/// soft state (prober) is deliberately kept: it is not safety-relevant and
/// wiping it would only blind failure detection. A restarted coordinator
/// additionally schedules one DFP range-recovery round, because the tallies
/// of unresolved proposals died with it.
class Replica : public recovery::Replica {
 public:
  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          NodeId coordinator, ReplicaConfig config = {},
          sim::LocalClock clock = sim::LocalClock{});

  /// For transports without datacenter placement (e.g. net::tcp::TcpContext):
  /// the same replica at dc 0.
  Replica(NodeId id, rpc::Context& context, std::vector<NodeId> replicas,
          NodeId coordinator, ReplicaConfig config = {},
          sim::LocalClock clock = sim::LocalClock{})
      : Replica(id, /*dc=*/0, context, std::move(replicas), coordinator, config, clock) {}

  /// Start probing and heartbeats; call after attach().
  void start() override;

  [[nodiscard]] bool is_coordinator() const { return coordinator_ == id(); }
  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] const log::GlobalLog& log() const { return log_; }
  [[nodiscard]] const measure::Prober& prober() const { return prober_; }
  [[nodiscard]] std::size_t retained_entries() const override {
    return log_.pending_entries();
  }

  /// The replication latency estimate L_r this replica piggybacks on probe
  /// replies (Section 5.6).
  [[nodiscard]] Duration replication_latency_estimate() const;

  // Counters for tests and experiment output.
  [[nodiscard]] std::uint64_t dfp_fast_commits() const { return obs_dfp_fast_.value(); }
  [[nodiscard]] std::uint64_t dfp_slow_commits() const { return obs_dfp_slow_.value(); }
  [[nodiscard]] std::uint64_t dfp_noop_resolutions() const { return obs_dfp_noops_.value(); }
  [[nodiscard]] std::uint64_t dm_commits() const { return obs_dm_commits_.value(); }
  [[nodiscard]] std::uint64_t executed_count() const { return log_.executed_count(); }

 protected:
  void on_message(const net::Packet& packet) override;
  void recover() override;
  void fill_catchup(recovery::CatchupReply& reply) const override;
  void merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  [[nodiscard]] std::uint32_t dfp_lane() const {
    return log::dfp_lane(replicas_.size());
  }
  [[nodiscard]] std::size_t rank_of(NodeId node) const;

  // ---- DFP acceptor ----
  void handle_dfp_propose(const net::Packet& packet);
  void handle_dfp_commit(const wire::Payload& payload);
  void handle_dfp_recovery_accept(NodeId from, const wire::Payload& payload);

  // ---- DFP coordinator ----
  void handle_dfp_accept_notice(NodeId from, const wire::Payload& payload);
  void process_dfp_notice(const DfpAcceptNotice& notice);
  void handle_dfp_recovery_reply(const wire::Payload& payload);
  void note_replica_watermark(std::size_t rank, TimePoint watermark);
  void coordinator_check(std::int64_t ts);
  void start_dfp_recovery(std::int64_t ts);
  void resolve_dfp(std::int64_t ts, bool is_noop, const sm::Command& command, bool was_fast);
  void reroute_via_dm(const sm::Command& command);
  [[nodiscard]] std::int64_t computed_commit_frontier() const;

  // ---- DM ----
  void handle_dm_propose(const net::Packet& packet);
  void handle_dm_accept(NodeId from, const wire::Payload& payload);
  void handle_dm_accept_reply(const wire::Payload& payload);
  void handle_dm_commit(const wire::Payload& payload);
  void dm_lead(const sm::Command& command, bool reply_via_dfp);
  void maybe_commit_dm(std::int64_t ts);

  // ---- failure handling (Section 5.8) ----
  void maybe_run_failure_recovery();
  [[nodiscard]] bool is_successor_for(std::size_t dead_rank) const;
  [[nodiscard]] bool round_due(std::uint32_t lane);
  void start_dfp_round(std::int64_t from_ts);
  void start_round(std::uint32_t lane, std::int64_t from_ts, std::int64_t to_ts);
  void handle_range_recover(NodeId from, const wire::Payload& payload);
  void handle_range_reply(NodeId from, const wire::Payload& payload);
  void try_finalize(std::uint32_t lane);
  void settle_dfp_positions(std::int64_t from_ts, std::int64_t to_ts,
                            const std::map<std::int64_t, sm::Command>& entries);
  void apply_range_resolve(const RangeResolve& resolve);

  // ---- shared ----
  void handle_heartbeat(NodeId from, const wire::Payload& payload);
  void handle_probe(const net::Packet& packet);
  void broadcast_heartbeat();
  void execute_ready();
  /// Durable kCommitted record for `pos`: a no-op, or a commit of `command`
  /// (null when the lane leader's own kAccepted record supplies it). `then`
  /// runs once the record is durable.
  void persist_committed(log::LogPosition pos, bool is_noop, const sm::Command* command,
                         std::function<void()> then = [] {});
  /// Commit `pos`, learned from the durable log or a peer rather than from
  /// this replica's own protocol step, unless it resolved as a no-op here;
  /// settles the DFP-lane or own-lane bookkeeping for it.
  void learn_committed(log::LogPosition pos, std::optional<sm::Command> command);

  std::size_t rank_ = 0;
  NodeId coordinator_;
  ReplicaConfig config_;
  log::GlobalLog log_;
  measure::Prober prober_;
  rpc::RepeatingTimer heartbeat_;

  // Crash recovery.
  /// Timestamps of acceptances whose externalizing send is still waiting on
  /// the durable sync. While one is pending, the advertised clock watermark
  /// must not pass it: a heartbeat overtaking the delayed acceptance notice
  /// (FIFO orders by *send* time) would let peers no-op a position this
  /// replica accepted, and they would skip a command others execute.
  std::multiset<std::int64_t> watermark_holds_;
  [[nodiscard]] TimePoint advertised_watermark() const;
  void release_watermark_hold(std::int64_t ts);

  // Coordinator state. Distinct commands proposed at the same timestamp
  // (client timestamp collisions, Section 5.3.3) are tallied separately.
  struct CommandTally {
    sm::Command command;
    std::size_t accepts = 0;
    std::size_t rejects = 0;
  };
  struct DfpPosition {
    std::vector<CommandTally> tallies;  // one per distinct command seen here
    bool resolved = false;
    std::optional<RequestId> winner;  // set when resolved with a command
    bool recovering = false;
    std::size_t recovery_acks = 0;
    std::optional<DfpCommit> recovery_choice;
    bool timer_armed = false;
  };
  std::map<std::int64_t, DfpPosition> dfp_positions_;  // ordered by timestamp
  std::vector<TimePoint> replica_watermarks_;          // per rank, coordinator view
  std::int64_t commit_frontier_ = 0;
  RequestIdSet dfp_committed_;  // requests committed via DFP

  // DM leader state: pending replication per own-lane timestamp.
  struct DmPending {
    std::size_t acks = 1;  // self
    RequestId request;
    bool reply_via_dfp = false;  // reply with DfpClientReply (re-routed request)
  };
  std::unordered_map<std::int64_t, DmPending> dm_pending_;
  std::unordered_map<std::int64_t, obs::SpanId> dm_quorum_spans_;     // ts -> wait span
  std::unordered_map<std::int64_t, obs::SpanId> dfp_recovery_spans_;  // ts -> wait span
  std::int64_t dm_last_assigned_ = 0;
  RequestIdSet rerouted_;  // requests re-proposed through DM

  // Failure-recovery rounds (Section 5.8), keyed by lane: a dead replica's
  // DM lane, or the DFP lane.
  struct RecoveryRound {
    bool active = false;
    std::int64_t from = 0;
    std::int64_t to = 0;
    std::map<std::int64_t, sm::Command> entries;  // union of reported entries
    std::unordered_set<NodeId> replied;
  };
  std::unordered_map<std::uint32_t, RecoveryRound> rounds_;
  std::unordered_map<std::uint32_t, TimePoint> next_round_at_;
  std::unordered_map<std::uint32_t, std::int64_t> dm_revoked_through_;
  /// Minimum spacing between recovery rounds for the same lane.
  static constexpr Duration kRecoveryRoundInterval = milliseconds(100);
  /// The coordinator recovers a DFP position that stays unresolved this
  /// long; a restarted coordinator waits this long before its range round.
  static constexpr Duration kRecoveryTimeout = milliseconds(500);

  // Counters for the accessors above and the domino.* metrics (see bind
  // order in harness::Env — the sink must be bound to the network before
  // replicas are constructed).
  void init_obs();
  obs::CounterHandle obs_dfp_fast_;
  obs::CounterHandle obs_dfp_slow_;
  obs::CounterHandle obs_dfp_noops_;
  obs::CounterHandle obs_dm_commits_;
  obs::CounterHandle obs_rerouted_;
};

}  // namespace domino::core

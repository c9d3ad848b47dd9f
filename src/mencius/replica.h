// Mencius replica (paper reference [24]; used as both a baseline and the
// design Domino's DM subsystem extends).
//
// Every replica leads the log instances congruent to its rank (mod n).
// A client sends requests to its closest replica, which proposes them at
// its next owned instance. Commit of instance p at its owner requires a
// majority of accepts AND the resolution (commit or skip) of all earlier
// instances — the "delayed commit" behaviour the paper measures as
// Mencius's extra latency (Section 7.2.2). The client is answered when its
// instance executes at the owner.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "log/index_log.h"
#include "measure/quorum.h"
#include "mencius/messages.h"
#include "recovery/replica.h"

namespace domino::mencius {

/// On restart() the replica replays its durable image (rebuilding the
/// own-lane reservation and pending retransmission state), re-sends its
/// pending own instances, and catches up from live peers.
class Replica : public recovery::Replica {
 public:
  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          sim::LocalClock clock = sim::LocalClock{});

  /// Start heartbeats; call after attach().
  void start() override;

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t owned_proposals() const { return obs_proposals_.value(); }
  [[nodiscard]] std::size_t retained_entries() const override {
    return log_.occupied_count();
  }

 protected:
  void on_message(const net::Packet& packet) override;
  void recover() override;
  void fill_catchup(recovery::CatchupReply& reply) const override;
  void merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  [[nodiscard]] std::size_t owner_of(std::uint64_t index) const {
    return static_cast<std::size_t>(index % replicas_.size());
  }
  /// Smallest index owned by `rank` that is >= `at_least`.
  [[nodiscard]] std::uint64_t next_owned_at_or_after(std::size_t rank,
                                                     std::uint64_t at_least) const;

  void handle(const net::Packet& packet, const ClientRequest& req);
  void handle(const net::Packet& packet, const Accept& msg);
  void handle(const net::Packet& packet, const AcceptReply& msg);
  void handle(const net::Packet& packet, const Commit& msg);
  void handle(const net::Packet& packet, const CommitAck& msg);
  void handle(const net::Packet& packet, const Skip& msg);

  /// The largest own-lane frontier that is safe to advertise to `peer`:
  /// every used owned instance below it has been acknowledged by that peer
  /// (via AcceptReply or CommitAck), so the peer cannot mistake a used
  /// instance it never received for a no-op. A global frontier would be
  /// sound only on loss-free FIFO channels; crashes and partitions drop
  /// packets, so the frontier must be per peer.
  [[nodiscard]] std::uint64_t safe_skip_frontier(NodeId peer) const;

  /// Record that `owner_rank`'s unused owned instances below `frontier` are
  /// no-ops (marks the empty ones in the log).
  void apply_skip_frontier(std::size_t owner_rank, std::uint64_t frontier);

  /// Advance our own lane past `index`: skip our unused owned instances
  /// below it (locally; peers learn via piggybacked skip_through).
  void advance_own_lane(std::uint64_t index);

  void execute_ready();
  void broadcast_heartbeat();

  /// Re-send an Accept whose majority is overdue (covers replies dropped by
  /// crashes/partitions). Comfortably above the widest NA/Globe RTT so
  /// fault-free runs never retransmit.
  static constexpr Duration kAcceptRetransmitAfter = milliseconds(400);

  /// Heartbeat period: each heartbeat carries the per-peer skip frontier and
  /// retransmits overdue Accepts and Commits.
  static constexpr Duration kHeartbeatInterval = milliseconds(10);

  std::size_t rank_ = 0;
  log::IndexLog log_;
  rpc::RepeatingTimer heartbeat_;

  std::uint64_t next_own_index_ = 0;  // smallest unused owned instance
  std::vector<std::uint64_t> skip_frontier_seen_;  // per owner rank

  // Owner-side pending instances: index -> (ack set, origin client). The
  // ack set (rather than a count) makes Accept retransmission safe: a
  // follower that re-replies after a retransmit is not counted twice.
  struct Pending {
    std::vector<NodeId> acked;         // AcceptReply senders, self excluded
    std::vector<NodeId> commit_acked;  // CommitAck senders, self excluded
    sm::Command command;               // kept for retransmission
    NodeId client;
    bool committed = false;
    TimePoint last_sent;  // last (re)transmission of the Accept/Commit
  };
  std::map<std::uint64_t, Pending> pending_;  // ordered: commit in index order
  std::unordered_map<std::uint64_t, RequestId> owned_request_;  // index -> request id

  obs::CounterHandle obs_proposals_;
  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_commits_;
  obs::CounterHandle obs_skips_;
};

}  // namespace domino::mencius

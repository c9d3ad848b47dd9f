// Classic Fast Paxos replica (acceptor role) and coordinator (learner +
// recovery proposer).
//
// Acceptors assign incoming client requests to consecutive local log
// indices (arrival order). Because concurrent clients' requests arrive in
// different orders at different acceptors, indices collide and the
// coordinator must run the recovery protocol — the behaviour Figure 7
// quantifies ("Fast Paxos would fall back to its slow path ... even if
// there are only a small set of concurrent clients").
//
// The coordinator is a distinguished replica. Per index it gathers every
// acceptor's ballot-0 acceptance, fast-commits when a supermajority agrees,
// and otherwise recovers: it picks the most-accepted not-yet-committed
// request (no-op if none) and runs a ballot-1 accept round on a majority.
// Requests that lose their position are re-proposed by the coordinator.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interval_set.h"
#include "fastpaxos/messages.h"
#include "log/index_log.h"
#include "measure/quorum.h"
#include "recovery/replica.h"

namespace domino::fastpaxos {

/// On restart() the replica replays its durable image and catches up from
/// live peers. A restarted coordinator additionally arms recovery timers for
/// undecided indices whose tallies died with it.
class Replica : public recovery::Replica {
 public:
  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          NodeId coordinator, sim::LocalClock clock = sim::LocalClock{});

  [[nodiscard]] bool is_coordinator() const { return coordinator_ == id(); }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t fast_commits() const { return obs_fast_.value(); }
  [[nodiscard]] std::uint64_t slow_commits() const { return obs_slow_.value(); }

  /// In-flight state this replica holds: live log entries, coordinator
  /// tallies, acceptor assignments and recovery picks. None of it grows
  /// with the run's history.
  [[nodiscard]] std::size_t retained_entries() const override {
    return log_.occupied_count() + tallies_.size() + assigned_at_.size() +
           recovery_chosen_.size();
  }

 protected:
  void on_message(const net::Packet& packet) override;
  void recover() override;
  void fill_catchup(recovery::CatchupReply& reply) const override;
  void merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  // ---- acceptor side ----
  void handle_client_request(const net::Packet& packet);
  void handle_recovery_accept(NodeId from, const wire::Payload& payload);
  void handle_commit(const wire::Payload& payload);

  // ---- coordinator side ----
  void handle_accept_notice(NodeId from, const wire::Payload& payload);
  void handle_recovery_reply(const wire::Payload& payload);
  void maybe_resolve(std::uint64_t index);
  void start_recovery(std::uint64_t index);
  void finish_commit(std::uint64_t index, bool is_noop, const sm::Command& command,
                     bool was_fast);
  void repropose_losers(std::uint64_t index);
  /// Committed or skipped: the log says so, also below the frontier.
  [[nodiscard]] bool decided(std::uint64_t index) const {
    return log_.is_committed(index) || log_.is_skipped(index);
  }
  void record_commit(std::uint64_t index, const sm::Command& command);

  void assign(const RequestId& rid, std::uint64_t index);
  void execute_ready();

  /// A coordinator recovers a position still undecided this long after its
  /// first report (or after the coordinator's restart).
  static constexpr Duration kRecoveryTimeout = milliseconds(500);

  NodeId coordinator_;
  log::IndexLog log_;

  // Acceptor state: its ballot-0 acceptances as index -> request for
  // indices at or above the execution frontier, with the reverse lookup
  // (each request's latest index; never larger); and the requests that
  // executed at their assigned index here, which answer a retry. A request
  // executed at another index leaves a hole in that set (one interval each,
  // growing with history), and a retry of it takes a new index.
  std::unordered_map<RequestId, std::uint64_t> assignment_;
  std::map<std::uint64_t, RequestId> assigned_at_;
  RequestIdSet executed_;
  std::uint64_t next_index_ = 0;

  // Coordinator state. A position's Tally lives only while it is in flight:
  // it is erased once the position is decided and its losers re-proposed.
  // Decidedness is read from the log (decided()), never from tallies_.
  struct Tally {
    std::unordered_map<NodeId, sm::Command> reports;  // acceptor -> accepted command
    bool recovering = false;
    std::size_t recovery_acks = 0;
    std::optional<Commit> recovery_choice;
    bool timer_armed = false;
  };
  std::map<std::uint64_t, Tally> tallies_;
  std::unordered_map<std::uint64_t, obs::SpanId> recovery_spans_;  // index -> wait span
  // The command decided at each position (an empty command for no-ops and
  // for positions a snapshot covered), re-sent to a late reporter. This is
  // the one coordinator store that grows with history: a recovering
  // acceptor's late notice may name any decided position.
  std::deque<sm::Command> decided_commands_;
  RequestIdSet committed_;  // requests decided at some position
  // Requests picked by an in-flight recovery; excluded from concurrent
  // recovery choices so one request cannot be chosen at two indices.
  std::unordered_set<RequestId> recovery_chosen_;

  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_fast_;
  obs::CounterHandle obs_slow_;
};

}  // namespace domino::fastpaxos

// EPaxos replica.
//
// Any replica can lead a command. The command leader computes interference
// dependencies and a sequence number, pre-accepts on a fast quorum, and
// commits in one round trip when all replies agree (the fast path); when
// attributes conflict, it runs a second (Accept) round on a majority with
// the union of the reported attributes — "it may require an additional
// network roundtrip to commit conflicting operations" (paper Section 2).
//
// Execution linearizes the dependency graph: strongly connected components
// in reverse-topological order, commands within a component by (seq, id) —
// so non-interfering commands execute out of order, which is why EPaxos has
// the lowest low-percentile execution latency in Figure 10(a) and degrades
// under contention in Figure 10(b).
//
// Executed state is compacted: each replica keeps a per-owner executed
// frontier and erases the contiguous executed prefix of every owner's
// instances, so `instances_` holds what is in flight, not the run's history.
// An instance below its owner's frontier counts as executed. Catch-up ships
// the frontiers with the store snapshot, plus the live instances above them.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "epaxos/messages.h"
#include "measure/quorum.h"
#include "recovery/durable.h"
#include "rpc/node.h"
#include "statemachine/kvstore.h"

namespace domino::epaxos {

/// EPaxos fast-quorum size (with the paper's optimized quorums):
/// f + floor((f+1)/2) replicas in total, including the command leader.
[[nodiscard]] constexpr std::size_t fast_quorum(std::size_t n) {
  const std::size_t f = measure::fault_tolerance(n);
  return f + (f + 1) / 2;
}
static_assert(fast_quorum(3) == 2);
static_assert(fast_quorum(5) == 3);

class Replica : public rpc::Node {
 public:
  using ExecuteHook = std::function<void(const RequestId&, TimePoint)>;

  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          sim::LocalClock clock = sim::LocalClock{});

  void set_execute_hook(ExecuteHook hook) { exec_hook_ = std::move(hook); }

  /// Bind simulated durable storage: instance attributes are persisted
  /// before the replies/commits that externalize them, and the replica
  /// survives an amnesiac restart().
  void enable_durability(recovery::DurableStore& store);

  /// Amnesiac restart: wipe volatile state, replay the durable image
  /// (rebuilding the interference table and leader books), re-lead own
  /// uncommitted instances, and catch up from live peers.
  void restart();

  [[nodiscard]] bool catching_up() const { return catching_up_; }

  [[nodiscard]] const sm::KvStore& store() const { return store_; }
  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::uint64_t fast_path_commits() const { return fast_commits_; }
  [[nodiscard]] std::uint64_t slow_path_commits() const { return slow_commits_; }
  /// Instances held in memory: the ones not yet compacted behind their
  /// owner's executed frontier.
  [[nodiscard]] std::size_t retained_instances() const { return instances_.size(); }

 protected:
  void on_packet(const net::Packet& packet) override;

 private:
  enum class Status : std::uint8_t { kPreAccepted, kAccepted, kCommitted, kExecuted };

  struct Instance {
    sm::Command command;
    std::uint64_t seq = 0;
    DepList deps;
    Status status = Status::kPreAccepted;
  };

  struct LeaderBook {
    std::uint64_t seq = 0;
    DepList deps;
    bool attributes_changed = false;
    // Ack sets (not counts): a restarted leader re-broadcasts its round, so
    // a peer may reply more than once and must not be counted twice.
    std::vector<NodeId> preaccept_acks;  // repliers, self excluded
    std::vector<NodeId> accept_acks;
    bool in_accept_phase = false;
    NodeId client;
  };

  void handle_client_request(const net::Packet& packet);
  void handle_preaccept(NodeId from, const wire::Payload& payload);
  void handle_preaccept_reply(NodeId from, const wire::Payload& payload);
  void handle_accept(NodeId from, const wire::Payload& payload);
  void handle_accept_reply(NodeId from, const wire::Payload& payload);
  void handle_commit(const wire::Payload& payload);
  void handle_catchup_request(NodeId from, const wire::Payload& payload);
  void handle_catchup_reply(const wire::Payload& payload);
  void send_catchup_requests();
  void finish_rejoin();

  /// Serialize an instance's attributes into a durable record body.
  [[nodiscard]] wire::Payload instance_record(const InstanceId& inst_id,
                                              const sm::Command& cmd, std::uint64_t seq,
                                              const DepList& deps, Status status,
                                              NodeId client) const;

  /// Compute (seq, deps) for `cmd` against the local interference table and
  /// record `inst` as the latest writer of its key.
  std::pair<std::uint64_t, DepList> attributes_for(const sm::Command& cmd,
                                                   const InstanceId& inst);

  void commit_instance(const InstanceId& inst, const sm::Command& cmd, std::uint64_t seq,
                       const DepList& deps, bool broadcast);
  void try_execute(const InstanceId& inst);
  void execute_scc_from(const InstanceId& root);
  /// Re-try the instances blocked on `dep`, which is now executed or
  /// committed.
  void wake_waiters(const InstanceId& dep);

  [[nodiscard]] std::size_t rank_of(NodeId owner) const;
  /// Executed, and erased (or about to be, once catch-up ends) behind its
  /// owner's executed frontier.
  [[nodiscard]] bool compacted(const InstanceId& inst) const {
    return inst.seq < exec_frontier_[rank_of(inst.replica)];
  }
  /// Advance `rank`'s executed frontier over its contiguous executed
  /// instances, erasing them.
  void compact(std::size_t rank);
  /// Every instance between this replica's executed frontier and `frontier`
  /// (per owner rank) is here, committed or executed.
  [[nodiscard]] bool holds_all_below(const std::vector<std::uint64_t>& frontier) const;

  std::vector<NodeId> replicas_;
  sm::KvStore store_;
  ExecuteHook exec_hook_;

  // Crash recovery.
  recovery::Persistor persistor_;
  bool catching_up_ = false;
  TimePoint recovery_started_at_ = TimePoint::epoch();

  std::unordered_map<InstanceId, Instance> instances_;
  // Per owner rank: every instance of that owner below it is executed and
  // no longer in instances_.
  std::vector<std::uint64_t> exec_frontier_;
  std::unordered_map<InstanceId, LeaderBook> leading_;
  // Interference: latest instance per key, with its seq.
  std::unordered_map<std::string, std::pair<InstanceId, std::uint64_t>> key_table_;
  // Commit wakeups: uncommitted dep -> instances waiting on it.
  std::unordered_map<InstanceId, std::vector<InstanceId>> waiters_;
  std::unordered_map<InstanceId, obs::SpanId> quorum_spans_;  // leader quorum gathers
  std::unordered_map<InstanceId, obs::SpanId> dep_spans_;     // execution blocked on deps

  std::uint64_t next_instance_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t fast_commits_ = 0;
  std::uint64_t slow_commits_ = 0;

  obs::CounterHandle obs_preaccepts_;
  obs::CounterHandle obs_fast_;
  obs::CounterHandle obs_slow_;
  obs::CounterHandle obs_committed_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::epaxos

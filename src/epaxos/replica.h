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

#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "epaxos/messages.h"
#include "measure/quorum.h"
#include "recovery/replica.h"

namespace domino::epaxos {

/// EPaxos fast-quorum size (with the paper's optimized quorums):
/// f + floor((f+1)/2) replicas in total, including the command leader.
[[nodiscard]] constexpr std::size_t fast_quorum(std::size_t n) {
  const std::size_t f = measure::fault_tolerance(n);
  return f + (f + 1) / 2;
}
static_assert(fast_quorum(3) == 2);
static_assert(fast_quorum(5) == 3);

/// On restart() the replica replays its durable image (rebuilding the
/// interference table and leader books), re-leads own uncommitted
/// instances, and catches up from live peers.
class Replica : public recovery::Replica {
 public:
  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          sim::LocalClock clock = sim::LocalClock{});

  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::uint64_t fast_path_commits() const { return obs_fast_.value(); }
  [[nodiscard]] std::uint64_t slow_path_commits() const { return obs_slow_.value(); }
  /// Instances held in memory: the ones not yet compacted behind their
  /// owner's executed frontier.
  [[nodiscard]] std::size_t retained_entries() const override { return instances_.size(); }

 protected:
  void on_message(const net::Packet& packet) override;
  void recover() override;
  void fill_catchup(recovery::CatchupReply& reply) const override;
  void merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) override;
  /// Run the compaction held off while catching up.
  void on_rejoined() override;

 private:
  enum class Status : std::uint8_t { kPreAccepted, kAccepted, kCommitted, kExecuted };

  struct Instance {
    sm::Command command;
    std::uint64_t seq = 0;
    DepList deps;
    Status status = Status::kPreAccepted;
  };

  /// Durable kAccepted and kCommitted record body: an instance's attributes,
  /// plus the requesting client on the command leader's own records.
  struct InstanceRecord {
    InstanceId instance;
    sm::Command command;
    std::uint64_t seq = 0;
    DepList deps;
    Status status = Status::kPreAccepted;
    std::optional<NodeId> client;

    static auto fields(auto& m) {
      return std::tie(m.instance, m.command, m.seq, m.deps, m.status, m.client);
    }
  };

  /// Catch-up aux bytes of one shipped committed instance.
  struct CatchupAux {
    InstanceId instance;
    std::uint64_t seq = 0;
    DepList deps;
    bool executed = false;  // by the peer, so its snapshot reflects it

    static auto fields(auto& m) { return std::tie(m.instance, m.seq, m.deps, m.executed); }
  };

  /// Interference-table entry: the latest instance to write a key.
  struct KeyWriter {
    InstanceId instance;
    std::uint64_t seq = 0;
  };
  // An 8 B key word, the instance id and seq, and the slot's tag byte.
  static_assert(FlatStringMap<KeyWriter>::kSlotBytes == 33);

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

  void handle(const net::Packet& packet, const ClientRequest& req);
  void handle(const net::Packet& packet, const PreAccept& msg);
  void handle(const net::Packet& packet, const PreAcceptReply& msg);
  void handle(const net::Packet& packet, const Accept& msg);
  void handle(const net::Packet& packet, const AcceptReply& msg);
  void handle(const net::Packet& packet, const Commit& msg);

  /// Compute (seq, deps) for `cmd` against the local interference table and
  /// record `inst` as the latest writer of its key.
  std::pair<std::uint64_t, DepList> attributes_for(const sm::Command& cmd,
                                                   const InstanceId& inst);
  /// Record `inst` as the latest writer of `key` unless the table already
  /// holds a writer with a seq at least `seq`.
  void note_writer(std::string_view key, const InstanceId& inst, std::uint64_t seq);

  void commit_instance(const InstanceId& inst, const sm::Command& cmd, std::uint64_t seq,
                       const DepList& deps, bool announce);
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

  std::unordered_map<InstanceId, Instance> instances_;
  // Per owner rank: every instance of that owner below it is executed and
  // no longer in instances_.
  std::vector<std::uint64_t> exec_frontier_;
  std::unordered_map<InstanceId, LeaderBook> leading_;
  // Interference: latest instance per key, with its seq.
  FlatStringMap<KeyWriter> key_table_;
  // Commit wakeups: uncommitted dep -> instances waiting on it.
  std::unordered_map<InstanceId, std::vector<InstanceId>> waiters_;

  std::uint64_t next_instance_ = 0;
  // Instances committed and executed here: replica state, rebuilt by replay
  // and lowered by a snapshot install, unlike the epaxos.committed and
  // epaxos.executed event counts.
  std::uint64_t committed_ = 0;
  std::uint64_t executed_ = 0;

  obs::CounterHandle obs_preaccepts_;
  obs::CounterHandle obs_fast_;
  obs::CounterHandle obs_slow_;
  obs::CounterHandle obs_committed_;
};

}  // namespace domino::epaxos

// Multi-Paxos replica.
//
// One replica is the fixed leader. Clients send requests to the leader,
// which assigns consecutive log indices, replicates via Accept, commits on
// a majority of accept replies (counting itself), answers the client, and
// asynchronously notifies followers. Committed entries execute in index
// order against the key-value store.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "log/index_log.h"
#include "measure/prober.h"
#include "measure/quorum.h"
#include "recovery/durable.h"
#include "rpc/node.h"
#include "statemachine/kvstore.h"

namespace domino::paxos {

class Replica : public rpc::Node {
 public:
  /// Called on every command execution (harness taps this for execution
  /// latency): the executed command's id and the true execution time.
  using ExecuteHook = std::function<void(const RequestId&, TimePoint)>;

  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          NodeId leader, sim::LocalClock clock = sim::LocalClock{});

  void set_execute_hook(ExecuteHook hook) { exec_hook_ = std::move(hook); }

  /// Bind simulated durable storage: from now on the replica persists its
  /// promises before externalizing them (persist-before-send, paying the
  /// store's sync latency) and can survive an amnesiac restart().
  void enable_durability(recovery::DurableStore& store);

  /// Amnesiac restart (the fault injector's restart hook): wipe all
  /// volatile state, replay the durable image, re-propose uncommitted
  /// leader entries, and catch up from live peers before serving clients.
  void restart();

  [[nodiscard]] bool catching_up() const { return catching_up_; }

  [[nodiscard]] bool is_leader() const { return leader_ == id(); }
  [[nodiscard]] NodeId leader() const { return leader_; }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] const sm::KvStore& store() const { return store_; }
  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }

 protected:
  void on_packet(const net::Packet& packet) override;

 private:
  void handle_client_request(const net::Packet& packet);
  void handle_accept(NodeId from, const wire::Payload& payload);
  void handle_accept_reply(const wire::Payload& payload);
  void handle_commit(const wire::Payload& payload);
  void handle_catchup_request(NodeId from, const wire::Payload& payload);
  void handle_catchup_reply(const wire::Payload& payload);
  void send_catchup_requests();
  void finish_rejoin();
  void execute_ready();

  std::vector<NodeId> replicas_;
  NodeId leader_;
  log::IndexLog log_;
  sm::KvStore store_;
  ExecuteHook exec_hook_;

  // Crash recovery.
  recovery::Persistor persistor_;
  bool catching_up_ = false;
  TimePoint recovery_started_at_ = TimePoint::epoch();

  // Leader state.
  std::uint64_t next_index_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> accept_counts_;  // index -> acks (incl. self)
  std::unordered_map<std::uint64_t, obs::SpanId> quorum_spans_;   // index -> open wait span
  std::unordered_map<std::uint64_t, NodeId> origin_;              // index -> requesting client
  std::uint64_t committed_ = 0;

  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_commits_;
  obs::CounterHandle obs_executed_;
};

}  // namespace domino::paxos

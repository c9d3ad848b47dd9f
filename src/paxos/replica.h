// Multi-Paxos replica.
//
// One replica is the fixed leader. Clients send requests to the leader,
// which assigns consecutive log indices, replicates via Accept, commits on
// a majority of accept replies (counting itself), answers the client, and
// asynchronously notifies followers. Committed entries execute in index
// order against the key-value store.
#pragma once

#include <unordered_map>
#include <vector>

#include "log/index_log.h"
#include "measure/prober.h"
#include "measure/quorum.h"
#include "paxos/messages.h"
#include "recovery/replica.h"

namespace domino::paxos {

/// On restart() the replica replays its durable image, re-proposes
/// uncommitted leader entries, and catches up from live peers.
class Replica : public recovery::Replica {
 public:
  Replica(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> replicas,
          NodeId leader, sim::LocalClock clock = sim::LocalClock{});

  [[nodiscard]] bool is_leader() const { return leader_ == id(); }
  [[nodiscard]] NodeId leader() const { return leader_; }
  [[nodiscard]] const log::IndexLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t committed_count() const { return obs_commits_.value(); }
  [[nodiscard]] std::size_t retained_entries() const override {
    return log_.occupied_count();
  }

 protected:
  void on_message(const net::Packet& packet) override;
  void recover() override;
  void fill_catchup(recovery::CatchupReply& reply) const override;
  void merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) override;

 private:
  void handle(const net::Packet& packet, const ClientRequest& req);
  void handle(const net::Packet& packet, const Accept& msg);
  void handle(const net::Packet& packet, const AcceptReply& msg);
  void handle(const net::Packet& packet, const Commit& msg);
  void execute_ready();

  NodeId leader_;
  log::IndexLog log_;

  // Leader state.
  std::uint64_t next_index_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> accept_counts_;  // index -> acks (incl. self)
  std::unordered_map<std::uint64_t, NodeId> origin_;              // index -> requesting client

  obs::CounterHandle obs_accepts_;
  obs::CounterHandle obs_commits_;
};

}  // namespace domino::paxos

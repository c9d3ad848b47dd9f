#include "paxos/replica.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace domino::paxos {

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, NodeId leader, sim::LocalClock clock)
    : recovery::Replica(id, dc, context, std::move(replicas), "paxos.executed", clock),
      leader_(leader) {
  obs_accepts_ = obs_sink().counter("paxos.accepts");
  obs_commits_ = obs_sink().counter("paxos.commits");
}

void Replica::on_message(const net::Packet& packet) {
  dispatch<ClientRequest, Accept, AcceptReply, Commit>(
      packet, [this](const net::Packet& p, const auto& msg) { handle(p, msg); });
}

void Replica::handle(const net::Packet&, const ClientRequest& req) {
  if (!is_leader()) return;  // clients are configured to talk to the leader only
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const std::uint64_t index = next_index_++;
  log_.accept(index, req.command);
  accept_counts_[index] = 1;  // self-accept
  origin_[index] = req.command.id.client;
  open_wait("paxos_quorum_wait", index);
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      recovery::IndexAcceptedRecord{index, req.command, req.command.id.client},
      [this, index, command = req.command] { broadcast(Accept{index, command}); });
}

void Replica::handle(const net::Packet& packet, const Accept& msg) {
  if (log_.is_committed(msg.index)) {
    // Re-proposal from a restarted leader for an entry this follower already
    // learned committed: the promise is already durable, just re-ack.
    send(packet.src, AcceptReply{msg.index});
    return;
  }
  log_.accept(msg.index, msg.command);
  obs_accepts_.inc();
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      recovery::IndexAcceptedRecord{msg.index, msg.command, std::nullopt},
      [this, from = packet.src, index = msg.index] { send(from, AcceptReply{index}); });
}

void Replica::handle(const net::Packet&, const AcceptReply& msg) {
  if (!is_leader()) return;
  auto it = accept_counts_.find(msg.index);
  if (it == accept_counts_.end()) return;  // already committed
  if (++it->second < measure::majority(replicas_.size())) return;

  accept_counts_.erase(it);
  close_wait("paxos_quorum_wait", msg.index);
  log_.commit(msg.index);
  obs_commits_.inc();

  const auto* entry = log_.entry(msg.index);
  NodeId origin = NodeId::invalid();
  const auto origin_it = origin_.find(msg.index);
  if (origin_it != origin_.end()) {
    origin = origin_it->second;
    origin_.erase(origin_it);
  }
  if (entry != nullptr) {
    // Persist the commit decision, then reply to the client and notify
    // followers (asynchronously, i.e. the client does not wait for follower
    // commits). The reply is what makes the commit externally visible, so
    // it must not leave this node before the decision is durable.
    const Commit commit{msg.index, entry->command};
    persistor_.persist(recovery::RecordTag::kCommitted, commit, [this, commit, origin] {
      if (origin.valid()) send(origin, ClientReply{commit.command.id});
      broadcast(commit);
    });
  }
  execute_ready();
}

void Replica::handle(const net::Packet&, const Commit& msg) {
  // The command rides on the Commit, so a follower that missed the Accept
  // (dropped while it was crashed or partitioned) still materializes the
  // entry instead of carrying a permanent hole.
  log_.commit(msg.index, msg.command);
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, msg);
  execute_ready();
}

void Replica::recover() {
  log_ = log::IndexLog{};
  accept_counts_.clear();
  origin_.clear();
  next_index_ = 0;

  persistor_.replay<recovery::IndexAcceptedRecord, Commit>(
      [this](recovery::IndexAcceptedRecord rec) {
        if (rec.client) origin_[rec.index] = *rec.client;
        // A later kCommitted record (or a duplicate accept from a previous
        // incarnation) may already have resolved this index.
        if (!log_.is_committed(rec.index)) log_.accept(rec.index, std::move(rec.command));
        next_index_ = std::max(next_index_, rec.index + 1);
      },
      [this](Commit rec) {
        log_.commit(rec.index, std::move(rec.command));
        origin_.erase(rec.index);  // the client was already answered
        next_index_ = std::max(next_index_, rec.index + 1);
      });
  execute_ready();

  // Accepted-but-uncommitted leader entries lost their quorum tallies with
  // the crash; re-propose them (same index, same value — followers simply
  // re-ack) so the execution frontier cannot stall behind them.
  if (is_leader()) {
    for (std::uint64_t index = log_.execution_frontier(); index < next_index_; ++index) {
      const auto* e = log_.entry(index);
      if (e == nullptr || e->status != log::EntryStatus::kAccepted) continue;
      accept_counts_[index] = 1;
      broadcast(Accept{index, e->command});
    }
  }
}

void Replica::fill_catchup(recovery::CatchupReply& reply) const {
  reply.frontier = static_cast<std::int64_t>(log_.execution_frontier());
  for (auto& [index, command] : log_.committed_unexecuted()) {
    reply.entries.push_back(recovery::CatchupEntry{
        static_cast<std::int64_t>(index), 0, std::move(command), {}});
  }
}

void Replica::merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) {
  if (msg.frontier > static_cast<std::int64_t>(log_.execution_frontier())) {
    install_snapshot(msg, bytes);
    log_.fast_forward(static_cast<std::uint64_t>(msg.frontier));
  }
  for (const auto& e : msg.entries) {
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    log_.commit(static_cast<std::uint64_t>(e.pos), e.command);
  }
  execute_ready();
}

void Replica::execute_ready() {
  for (auto& [index, command] : log_.drain_executable()) {
    (void)index;
    execute(command);
  }
}

}  // namespace domino::paxos

#include "mencius/replica.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace domino::mencius {

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, sim::LocalClock clock)
    : recovery::Replica(id, dc, context, std::move(replicas), "mencius.executed", clock),
      skip_frontier_seen_(replicas_.size(), 0) {
  const auto it = std::find(replicas_.begin(), replicas_.end(), id);
  if (it == replicas_.end()) throw std::invalid_argument("mencius::Replica: id not in set");
  rank_ = static_cast<std::size_t>(it - replicas_.begin());
  next_own_index_ = rank_;
  obs_proposals_ = obs_sink().counter("mencius.proposals");
  obs_accepts_ = obs_sink().counter("mencius.accepts");
  obs_commits_ = obs_sink().counter("mencius.commits");
  obs_skips_ = obs_sink().counter("mencius.skips");
}

void Replica::start() {
  heartbeat_.start(context(), kHeartbeatInterval, kHeartbeatInterval,
                   [this] { broadcast_heartbeat(); });
}

std::uint64_t Replica::next_owned_at_or_after(std::size_t rank, std::uint64_t at_least) const {
  const auto n = static_cast<std::uint64_t>(replicas_.size());
  const std::uint64_t rem = at_least % n;
  const auto target = static_cast<std::uint64_t>(rank);
  return at_least + (target >= rem ? target - rem : n - rem + target);
}

void Replica::on_message(const net::Packet& packet) {
  dispatch<ClientRequest, Accept, AcceptReply, Commit, CommitAck, Skip>(
      packet, [this](const net::Packet& p, const auto& msg) { handle(p, msg); });
}

void Replica::handle(const net::Packet&, const ClientRequest& req) {
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const std::uint64_t p = next_own_index_;
  next_own_index_ = p + replicas_.size();
  obs_proposals_.inc();

  log_.accept(p, req.command);
  pending_.emplace(p, Pending{{}, {}, req.command, req.command.id.client, false, true_now()});
  owned_request_.emplace(p, req.command.id);
  open_wait("mencius_quorum_wait", p);

  persistor_.persist(
      recovery::RecordTag::kAccepted,
      recovery::IndexAcceptedRecord{p, req.command, req.command.id.client},
      [this, p, command = req.command] {
        for (NodeId r : replicas_) {
          if (r != id()) send(r, Accept{p, command, safe_skip_frontier(r)});
        }
      });
}

void Replica::handle(const net::Packet& packet, const Accept& msg) {
  const std::size_t owner = owner_of(msg.index);
  apply_skip_frontier(owner, msg.skip_through);
  if (!log_.is_committed(msg.index)) log_.accept(msg.index, msg.command);
  obs_accepts_.inc();
  // Receiving a proposal for index p implicitly promises to never use our
  // own unused instances below p.
  advance_own_lane(msg.index);
  // The AcceptReply is the externalized promise: the owner will count this
  // instance as safely replicated here (and advance skip frontiers past it
  // towards us), so the accept must be durable before the reply leaves.
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      recovery::IndexAcceptedRecord{msg.index, msg.command, std::nullopt},
      [this, from = packet.src, index = msg.index] {
        send(from, AcceptReply{index, safe_skip_frontier(from)});
      });
  execute_ready();
}

void Replica::handle(const net::Packet& packet, const AcceptReply& msg) {
  const auto from_it = std::find(replicas_.begin(), replicas_.end(), packet.src);
  if (from_it != replicas_.end()) {
    apply_skip_frontier(static_cast<std::size_t>(from_it - replicas_.begin()),
                        msg.skip_through);
  }
  auto it = pending_.find(msg.index);
  if (it != pending_.end() && !it->second.committed) {
    auto& acked = it->second.acked;
    if (std::ranges::find(acked, packet.src) == acked.end()) acked.push_back(packet.src);
    if (acked.size() + 1 >= measure::majority(replicas_.size())) {
      it->second.committed = true;
      it->second.last_sent = true_now();
      close_wait("mencius_quorum_wait", msg.index);
      log_.commit(msg.index);
      obs_commits_.inc();
      // Persist the commit decision before it is externalized — by the
      // Commit broadcast, and by the ClientReply that owner execution (in
      // the continuation's execute_ready) may send.
      const Commit commit{msg.index, it->second.command};
      persistor_.persist(recovery::RecordTag::kCommitted, commit, [this, commit] {
        // The Pending entry stays until every peer CommitAcks: the owner
        // retransmits the Commit to the stragglers from the heartbeat, so a
        // follower that was crashed or partitioned at commit time still
        // learns the command instead of stalling its execution frontier.
        broadcast(commit);
        execute_ready();
      });
      return;
    }
  }
  execute_ready();
}

void Replica::handle(const net::Packet& packet, const Commit& msg) {
  // The command rides on the Commit, so a replica that missed the Accept
  // (dropped while it was crashed or partitioned) still materializes the
  // entry; a hole here would stall its execution frontier forever.
  log_.commit(msg.index, msg.command);
  // The CommitAck releases the owner from retransmitting this commit to us
  // — forget it after acking and the hole is permanent — so the commit must
  // be durable before the ack leaves.
  persistor_.persist(
      recovery::RecordTag::kCommitted, msg,
      [this, from = packet.src, index = msg.index] { send(from, CommitAck{index}); });
  execute_ready();
}

void Replica::handle(const net::Packet& packet, const CommitAck& msg) {
  const auto it = pending_.find(msg.index);
  if (it == pending_.end() || !it->second.committed) return;
  auto& acked = it->second.commit_acked;
  if (std::ranges::find(acked, packet.src) == acked.end()) acked.push_back(packet.src);
  if (acked.size() + 1 >= replicas_.size()) pending_.erase(it);
}

void Replica::handle(const net::Packet& packet, const Skip& msg) {
  const auto from_it = std::find(replicas_.begin(), replicas_.end(), packet.src);
  if (from_it == replicas_.end()) return;
  apply_skip_frontier(static_cast<std::size_t>(from_it - replicas_.begin()),
                      msg.skip_through);
  execute_ready();
}

void Replica::apply_skip_frontier(std::size_t owner_rank, std::uint64_t frontier) {
  if (owner_rank >= replicas_.size()) return;
  std::uint64_t& seen = skip_frontier_seen_[owner_rank];
  if (frontier <= seen) return;
  // Walk the owner's instances in [seen, frontier); FIFO channels guarantee
  // every instance the owner actually used has already been accepted here,
  // so the empty ones are no-ops. An executed instance has no entry left
  // either; it is not empty.
  for (std::uint64_t idx = next_owned_at_or_after(owner_rank, seen); idx < frontier;
       idx += replicas_.size()) {
    if (log_.entry(idx) == nullptr && !log_.is_executed(idx)) {
      log_.skip(idx, idx);
      obs_skips_.inc();
    }
  }
  seen = frontier;
}

std::uint64_t Replica::safe_skip_frontier(NodeId peer) const {
  for (const auto& [index, p] : pending_) {
    const bool peer_has_entry =
        std::find(p.acked.begin(), p.acked.end(), peer) != p.acked.end() ||
        std::find(p.commit_acked.begin(), p.commit_acked.end(), peer) !=
            p.commit_acked.end();
    if (!peer_has_entry) return index;  // pending_ is index-ordered
  }
  return next_own_index_;
}

void Replica::advance_own_lane(std::uint64_t index) {
  while (next_own_index_ < index) {
    log_.skip(next_own_index_, next_own_index_);
    next_own_index_ += replicas_.size();
  }
}

void Replica::recover() {
  log_ = log::IndexLog{};
  pending_.clear();
  owned_request_.clear();
  next_own_index_ = rank_;
  skip_frontier_seen_.assign(replicas_.size(), 0);

  persistor_.replay<recovery::IndexAcceptedRecord, Commit>(
      [this](recovery::IndexAcceptedRecord rec) {
        const std::uint64_t index = rec.index;
        if (rec.client) {  // own instance
          if (!log_.is_committed(index)) log_.accept(index, rec.command);
          owned_request_.insert_or_assign(index, rec.command.id);
          pending_.insert_or_assign(
              index, Pending{{}, {}, std::move(rec.command), *rec.client, false, true_now()});
          next_own_index_ = std::max(next_own_index_, index + replicas_.size());
        } else {
          if (!log_.is_committed(index)) log_.accept(index, std::move(rec.command));
          // Restore the implicit own-lane promise the accept made.
          advance_own_lane(index);
        }
      },
      [this](Commit rec) {
        log_.commit(rec.index, std::move(rec.command));
        if (owner_of(rec.index) == rank_) {
          const auto it = pending_.find(rec.index);
          if (it != pending_.end()) {
            it->second.committed = true;
            it->second.acked.clear();
            it->second.commit_acked.clear();
          }
        } else {
          advance_own_lane(rec.index);
        }
      });
  execute_ready();

  // All quorum/ack tallies died with the crash: immediately re-send every
  // pending own instance (Accept if uncommitted, Commit otherwise). Peers
  // re-ack idempotently; without this the execution frontiers of the whole
  // cluster could stall on an orphaned instance for a retransmit period.
  for (auto& [index, p] : pending_) {
    p.last_sent = true_now();
    for (NodeId r : replicas_) {
      if (r == id()) continue;
      if (p.committed) {
        send(r, Commit{index, p.command});
      } else {
        send(r, Accept{index, p.command, safe_skip_frontier(r)});
      }
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
    next_own_index_ = std::max(
        next_own_index_,
        next_owned_at_or_after(rank_, static_cast<std::uint64_t>(msg.frontier)));
    // Own instances the snapshot covers were executed cluster-wide: their
    // clients can be answered now; log execution will never reach them.
    for (auto it = owned_request_.begin(); it != owned_request_.end();) {
      if (it->first < static_cast<std::uint64_t>(msg.frontier)) {
        send(it->second.client, ClientReply{it->second});
        pending_.erase(it->first);
        it = owned_request_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& e : msg.entries) {
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    log_.commit(static_cast<std::uint64_t>(e.pos), e.command);
  }
  execute_ready();
}

void Replica::execute_ready() {
  for (auto& [index, command] : log_.drain_executable()) {
    execute(command);
    const auto it = owned_request_.find(index);
    if (it != owned_request_.end()) {
      send(it->second.client, ClientReply{it->second});
      owned_request_.erase(it);
    }
  }
}

void Replica::broadcast_heartbeat() {
  for (NodeId r : replicas_) {
    if (r != id()) send(r, Skip{safe_skip_frontier(r)});
  }
  // Retransmit lost protocol steps. The original Accepts, their replies,
  // or the Commit broadcast may have been dropped while a peer (or this
  // replica) was crashed or partitioned, and Mencius's total commit order
  // means one orphaned instance stalls every execution frontier in the
  // cluster forever — so the owner keeps re-sending until each peer has
  // acknowledged the Accept (uncommitted) or the Commit (committed).
  for (auto& [index, p] : pending_) {
    if (true_now() - p.last_sent < kAcceptRetransmitAfter) continue;
    p.last_sent = true_now();
    for (NodeId r : replicas_) {
      if (r == id()) continue;
      if (!p.committed) {
        if (std::find(p.acked.begin(), p.acked.end(), r) == p.acked.end()) {
          send(r, Accept{index, p.command, safe_skip_frontier(r)});
        }
      } else if (std::find(p.commit_acked.begin(), p.commit_acked.end(), r) ==
                 p.commit_acked.end()) {
        send(r, Commit{index, p.command});
      }
    }
  }
}

}  // namespace domino::mencius

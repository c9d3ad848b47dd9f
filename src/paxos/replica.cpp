#include "paxos/replica.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "paxos/messages.h"
#include "recovery/messages.h"

namespace domino::paxos {

namespace {
/// Catch-up request retransmit interval for a recovering replica.
constexpr Duration kCatchupRetryInterval = milliseconds(100);
}  // namespace

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, NodeId leader, sim::LocalClock clock)
    : rpc::Node(id, dc, context, clock), replicas_(std::move(replicas)), leader_(leader) {
  obs_accepts_ = obs_sink().counter("paxos.accepts");
  obs_commits_ = obs_sink().counter("paxos.commits");
  obs_executed_ = obs_sink().counter("paxos.executed");
}

void Replica::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kPaxosClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kPaxosAccept:
      handle_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kPaxosAcceptReply:
      handle_accept_reply(packet.payload);
      break;
    case wire::MessageType::kPaxosCommit:
      handle_commit(packet.payload);
      break;
    case wire::MessageType::kCatchupRequest:
      handle_catchup_request(packet.src, packet.payload);
      break;
    case wire::MessageType::kCatchupReply:
      handle_catchup_reply(packet.payload);
      break;
    default:
      break;  // not a Multi-Paxos message; ignore
  }
}

void Replica::enable_durability(recovery::DurableStore& store) {
  persistor_.bind(store, id(), [this](Duration delay, std::function<void()> fn) {
    after(delay, std::move(fn));
  });
}

void Replica::handle_client_request(const net::Packet& packet) {
  if (!is_leader()) return;  // clients are configured to talk to the leader only
  if (catching_up_) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const std::uint64_t index = next_index_++;
  log_.accept(index, req.command);
  accept_counts_[index] = 1;  // self-accept
  origin_[index] = req.command.id.client;
  if (const obs::SpanId s = open_wait_span("paxos_quorum_wait"); s != 0) {
    quorum_spans_[index] = s;
  }
  const sm::Command command = req.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        wire::ByteWriter w;
        w.varint(index);
        command.encode(w);
        w.boolean(true);  // leader record: carries the requesting client
        w.node_id(command.id.client);
        return w.take();
      },
      [this, index, command] {
        const Accept msg{index, command};
        for (NodeId r : replicas_) {
          if (r != id()) send(r, msg);
        }
      });
}

void Replica::handle_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Accept>(payload);
  if (log_.is_committed(msg.index)) {
    // Re-proposal from a restarted leader for an entry this follower already
    // learned committed: the promise is already durable, just re-ack.
    send(from, AcceptReply{msg.index});
    return;
  }
  log_.accept(msg.index, msg.command);
  obs_accepts_.inc();
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        wire::ByteWriter w;
        w.varint(msg.index);
        msg.command.encode(w);
        w.boolean(false);
        return w.take();
      },
      [this, from, index = msg.index] { send(from, AcceptReply{index}); });
}

void Replica::handle_accept_reply(const wire::Payload& payload) {
  if (!is_leader()) return;
  const auto msg = wire::decode_message<AcceptReply>(payload);
  auto it = accept_counts_.find(msg.index);
  if (it == accept_counts_.end()) return;  // already committed
  if (++it->second < measure::majority(replicas_.size())) return;

  accept_counts_.erase(it);
  const auto span_it = quorum_spans_.find(msg.index);
  if (span_it != quorum_spans_.end()) {
    close_wait_span(span_it->second);
    quorum_spans_.erase(span_it);
  }
  log_.commit(msg.index);
  ++committed_;
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
    const std::uint64_t index = msg.index;
    const sm::Command command = entry->command;
    persistor_.persist(
        recovery::RecordTag::kCommitted,
        [&] {
          wire::ByteWriter w;
          w.varint(index);
          command.encode(w);
          return w.take();
        },
        [this, index, command, origin] {
          if (origin.valid()) send(origin, ClientReply{command.id});
          for (NodeId r : replicas_) {
            if (r != id()) send(r, Commit{index, command});
          }
        });
  }
  execute_ready();
}

void Replica::handle_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  // The command rides on the Commit, so a follower that missed the Accept
  // (dropped while it was crashed or partitioned) still materializes the
  // entry instead of carrying a permanent hole.
  log_.commit(msg.index, msg.command);
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, [&] {
    wire::ByteWriter w;
    w.varint(msg.index);
    msg.command.encode(w);
    return w.take();
  });
  execute_ready();
}

void Replica::restart() {
  persistor_.begin_restart();
  for (auto& [index, span] : quorum_spans_) {
    (void)index;
    close_wait_span(span);
  }
  quorum_spans_.clear();
  log_ = log::IndexLog{};
  store_ = sm::KvStore{};
  accept_counts_.clear();
  origin_.clear();
  next_index_ = 0;
  committed_ = 0;
  catching_up_ = true;
  recovery_started_at_ = true_now();
  obs_sink().record(obs::TraceEvent{
      .at = true_now(),
      .kind = obs::EventKind::kRecoveryStart,
      .node = id(),
      .value = static_cast<std::int64_t>(persistor_.epoch())});

  persistor_.replay([this](const recovery::DurableRecord& rec) {
    wire::ByteReader r(rec.body);
    switch (rec.tag) {
      case recovery::RecordTag::kAccepted: {
        const std::uint64_t index = r.varint();
        sm::Command cmd = sm::Command::decode(r);
        if (r.boolean()) origin_[index] = r.node_id();
        // A later kCommitted record (or a duplicate accept from a previous
        // incarnation) may already have resolved this index.
        if (!log_.is_committed(index)) log_.accept(index, std::move(cmd));
        next_index_ = std::max(next_index_, index + 1);
        break;
      }
      case recovery::RecordTag::kCommitted: {
        const std::uint64_t index = r.varint();
        sm::Command cmd = sm::Command::decode(r);
        log_.commit(index, std::move(cmd));
        origin_.erase(index);  // the client was already answered
        next_index_ = std::max(next_index_, index + 1);
        break;
      }
      default:
        break;  // Multi-Paxos writes no other tags
    }
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
      const Accept msg{index, e->command};
      for (NodeId r : replicas_) {
        if (r != id()) send(r, msg);
      }
    }
  }
  send_catchup_requests();
}

void Replica::send_catchup_requests() {
  if (!catching_up_) return;
  if (replicas_.size() <= 1) {
    finish_rejoin();
    return;
  }
  const recovery::CatchupRequest req{persistor_.epoch(), store_.applied_count()};
  for (NodeId r : replicas_) {
    if (r != id()) send(r, req);
  }
  after(kCatchupRetryInterval, [this, epoch = persistor_.epoch()] {
    if (catching_up_ && epoch == persistor_.epoch()) send_catchup_requests();
  });
}

void Replica::handle_catchup_request(NodeId from, const wire::Payload& payload) {
  // Always served, even while this replica is itself catching up: replying
  // with the current state keeps simultaneous recoveries from deadlocking.
  const auto req = wire::decode_message<recovery::CatchupRequest>(payload);
  recovery::CatchupReply reply;
  reply.epoch = req.epoch;
  reply.applied = store_.applied_count();
  reply.frontier = static_cast<std::int64_t>(log_.execution_frontier());
  reply.snapshot.reserve(store_.items().size());
  for (const auto& [key, value] : store_.items()) {
    reply.snapshot.push_back(recovery::KvEntry{key, value});
  }
  for (auto& [index, command] : log_.committed_unexecuted()) {
    reply.entries.push_back(recovery::CatchupEntry{
        static_cast<std::int64_t>(index), 0, std::move(command), {}});
  }
  send(from, reply);
}

void Replica::handle_catchup_reply(const wire::Payload& payload) {
  const auto msg = wire::decode_message<recovery::CatchupReply>(payload);
  if (msg.epoch != persistor_.epoch()) return;  // reply to an older incarnation
  if (msg.frontier > static_cast<std::int64_t>(log_.execution_frontier())) {
    std::unordered_map<std::string, std::string> items;
    items.reserve(msg.snapshot.size());
    for (const auto& e : msg.snapshot) items.emplace(e.key, e.value);
    store_.install_snapshot(std::move(items), msg.applied);
    log_.fast_forward(static_cast<std::uint64_t>(msg.frontier));
    persistor_.note_catchup_install(payload.size(), true_now() - recovery_started_at_);
  }
  for (const auto& e : msg.entries) {
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    log_.commit(static_cast<std::uint64_t>(e.pos), e.command);
  }
  execute_ready();
  finish_rejoin();
}

void Replica::finish_rejoin() {
  if (!catching_up_) return;
  catching_up_ = false;
  const Duration took = true_now() - recovery_started_at_;
  persistor_.note_rejoin(took);
  obs_sink().record(obs::TraceEvent{.at = true_now(),
                                    .kind = obs::EventKind::kRecoveryDone,
                                    .node = id(),
                                    .value = took.nanos()});
}

void Replica::execute_ready() {
  for (auto& [index, command] : log_.drain_executable()) {
    (void)index;
    store_.apply(command);
    obs_executed_.inc();
    if (exec_hook_) exec_hook_(command.id, true_now());
  }
}

}  // namespace domino::paxos

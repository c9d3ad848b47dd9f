#include "epaxos/replica.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace domino::epaxos {
namespace {

/// Union of two dependency lists (small lists; linear scan is fine).
DepList merge_deps(DepList a, const DepList& b) {
  for (const auto& d : b) {
    if (std::find(a.begin(), a.end(), d) == a.end()) a.push_back(d);
  }
  return a;
}

bool same_deps(const DepList& a, const DepList& b) {
  if (a.size() != b.size()) return false;
  for (const auto& d : a) {
    if (std::find(b.begin(), b.end(), d) == b.end()) return false;
  }
  return true;
}

}  // namespace

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, sim::LocalClock clock)
    : recovery::Replica(id, dc, context, std::move(replicas), "epaxos.executed", clock),
      exec_frontier_(replicas_.size(), 0) {
  if (std::find(replicas_.begin(), replicas_.end(), id) == replicas_.end()) {
    throw std::invalid_argument("epaxos::Replica: id not in replica set");
  }
  obs_preaccepts_ = obs_sink().counter("epaxos.preaccepts");
  obs_fast_ = obs_sink().counter("epaxos.fast_commits");
  obs_slow_ = obs_sink().counter("epaxos.slow_commits");
  obs_committed_ = obs_sink().counter("epaxos.committed");
}

void Replica::on_message(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kEpaxosClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kEpaxosPreAccept:
      handle_preaccept(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosPreAcceptReply:
      handle_preaccept_reply(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosAccept:
      handle_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosAcceptReply:
      handle_accept_reply(packet.src, packet.payload);
      break;
    case wire::MessageType::kEpaxosCommit:
      handle_commit(packet.payload);
      break;
    default:
      break;
  }
}

std::size_t Replica::rank_of(NodeId owner) const {
  const auto it = std::find(replicas_.begin(), replicas_.end(), owner);
  if (it == replicas_.end()) throw std::invalid_argument("epaxos: instance of a non-replica");
  return static_cast<std::size_t>(it - replicas_.begin());
}

std::pair<std::uint64_t, DepList> Replica::attributes_for(const sm::Command& cmd,
                                                          const InstanceId& inst) {
  std::uint64_t seq = 1;
  DepList deps;
  auto [writer, fresh] = key_table_.try_emplace(cmd.key);
  if (!fresh && writer->instance != inst) {
    deps.push_back(writer->instance);
    seq = writer->seq + 1;
  }
  *writer = {inst, seq};
  return {seq, deps};
}

void Replica::note_writer(std::string_view key, const InstanceId& inst, std::uint64_t seq) {
  auto [writer, fresh] = key_table_.try_emplace(key);
  if (fresh || writer->seq < seq) *writer = {inst, seq};
}

void Replica::handle_client_request(const net::Packet& packet) {
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const InstanceId inst{id(), next_instance_++};
  auto [seq, deps] = attributes_for(req.command, inst);
  instances_[inst] = Instance{req.command, seq, deps, Status::kPreAccepted};
  LeaderBook book;
  book.seq = seq;
  book.deps = deps;
  book.client = req.command.id.client;
  leading_[inst] = std::move(book);
  if (const obs::SpanId s = open_wait_span("epaxos_quorum_wait"); s != 0) {
    quorum_spans_[inst] = s;
  }

  const sm::Command command = req.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::to_bytes(
            InstanceRecord{inst, command, seq, deps, Status::kPreAccepted, command.id.client});
      },
      [this, inst, command, seq = seq, deps = deps] {
        broadcast(PreAccept{inst, command, seq, deps});
      });
}

void Replica::handle_preaccept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<PreAccept>(payload);
  std::uint64_t seq = msg.seq;
  DepList deps = msg.deps;
  auto [writer, fresh] = key_table_.try_emplace(msg.command.key);
  if (!fresh && writer->instance != msg.instance) {
    seq = std::max(seq, writer->seq + 1);
    deps = merge_deps(std::move(deps), {writer->instance});
  }
  *writer = {msg.instance, seq};
  obs_preaccepts_.inc();
  // A commit may already have arrived on another channel; never downgrade,
  // and never re-create an instance that was executed and compacted.
  auto inst_it = instances_.find(msg.instance);
  if (!compacted(msg.instance) &&
      (inst_it == instances_.end() || inst_it->second.status == Status::kPreAccepted)) {
    instances_[msg.instance] = Instance{msg.command, seq, deps, Status::kPreAccepted};
  }
  // The reply promises the merged attributes; they must survive a crash or
  // the leader could fast-commit on attributes this replica later disowns.
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::to_bytes(InstanceRecord{msg.instance, msg.command, seq, deps,
                                             Status::kPreAccepted, std::nullopt});
      },
      [this, from, inst = msg.instance, seq, deps] {
        send(from, PreAcceptReply{inst, seq, deps});
      });
}

void Replica::handle_preaccept_reply(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<PreAcceptReply>(payload);
  auto book_it = leading_.find(msg.instance);
  if (book_it == leading_.end()) return;
  LeaderBook& book = book_it->second;
  if (book.in_accept_phase) return;
  auto inst_it = instances_.find(msg.instance);
  if (inst_it == instances_.end() || inst_it->second.status != Status::kPreAccepted) return;
  if (std::find(book.preaccept_acks.begin(), book.preaccept_acks.end(), from) !=
      book.preaccept_acks.end()) {
    return;  // duplicate reply (re-broadcast after a restart)
  }

  book.preaccept_acks.push_back(from);
  if (msg.seq != book.seq || !same_deps(msg.deps, book.deps)) {
    book.attributes_changed = true;
    book.seq = std::max(book.seq, msg.seq);
    book.deps = merge_deps(std::move(book.deps), msg.deps);
  }
  if (book.preaccept_acks.size() + 1 < fast_quorum(replicas_.size())) return;

  Instance& inst = inst_it->second;
  if (!book.attributes_changed) {
    // Fast path: one round trip.
    obs_fast_.inc();
    // The commit decision is externalized by the ClientReply and the Commit
    // broadcast, so it must be durable first. The book is erased now so
    // replies landing during the sync window cannot re-trigger the quorum.
    const sm::Command command = inst.command;
    const std::uint64_t seq = book.seq;
    const DepList deps = book.deps;
    const NodeId client = book.client;
    leading_.erase(book_it);
    persistor_.persist(
        recovery::RecordTag::kCommitted,
        [&] {
          return wire::to_bytes(InstanceRecord{msg.instance, command, seq, deps,
                                               Status::kCommitted, std::nullopt});
        },
        [this, inst_id = msg.instance, command, seq, deps, client] {
          commit_instance(inst_id, command, seq, deps, /*announce=*/true);
          send(client, ClientReply{command.id});
        });
    return;
  }
  // Slow path: Paxos-Accept round with the union attributes.
  book.in_accept_phase = true;
  inst.seq = book.seq;
  inst.deps = book.deps;
  inst.status = Status::kAccepted;
  const sm::Command command = inst.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::to_bytes(InstanceRecord{msg.instance, command, book.seq, book.deps,
                                             Status::kAccepted, book.client});
      },
      [this, inst_id = msg.instance, command, seq = book.seq, deps = book.deps] {
        broadcast(Accept{inst_id, command, seq, deps});
      });
}

void Replica::handle_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Accept>(payload);
  auto it = instances_.find(msg.instance);
  if (compacted(msg.instance)) {
    // Executed and compacted: a late retransmission; just re-ack.
  } else if (it == instances_.end()) {
    instances_[msg.instance] = Instance{msg.command, msg.seq, msg.deps, Status::kAccepted};
  } else if (it->second.status == Status::kPreAccepted) {
    it->second.seq = msg.seq;
    it->second.deps = msg.deps;
    it->second.status = Status::kAccepted;
  }
  note_writer(msg.command.key, msg.instance, msg.seq);
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::to_bytes(InstanceRecord{msg.instance, msg.command, msg.seq, msg.deps,
                                             Status::kAccepted, std::nullopt});
      },
      [this, from, inst = msg.instance] { send(from, AcceptReply{inst}); });
}

void Replica::handle_accept_reply(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<AcceptReply>(payload);
  auto book_it = leading_.find(msg.instance);
  if (book_it == leading_.end()) return;
  LeaderBook& book = book_it->second;
  if (!book.in_accept_phase) return;
  if (std::find(book.accept_acks.begin(), book.accept_acks.end(), from) !=
      book.accept_acks.end()) {
    return;  // duplicate reply (re-broadcast after a restart)
  }
  book.accept_acks.push_back(from);
  if (book.accept_acks.size() + 1 < measure::majority(replicas_.size())) return;

  auto inst_it = instances_.find(msg.instance);
  if (inst_it == instances_.end()) return;
  obs_slow_.inc();
  const sm::Command command = inst_it->second.command;
  const std::uint64_t seq = book.seq;
  const DepList deps = book.deps;
  const NodeId client = book.client;
  leading_.erase(book_it);
  persistor_.persist(
      recovery::RecordTag::kCommitted,
      [&] {
        return wire::to_bytes(InstanceRecord{msg.instance, command, seq, deps,
                                             Status::kCommitted, std::nullopt});
      },
      [this, inst_id = msg.instance, command, seq, deps, client] {
        commit_instance(inst_id, command, seq, deps, /*announce=*/true);
        send(client, ClientReply{command.id});
      });
}

void Replica::handle_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  commit_instance(msg.instance, msg.command, msg.seq, msg.deps, /*announce=*/false);
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, [&] {
    return wire::to_bytes(InstanceRecord{msg.instance, msg.command, msg.seq, msg.deps,
                                         Status::kCommitted, std::nullopt});
  });
}

void Replica::recover() {
  close_wait_spans(quorum_spans_);
  close_wait_spans(dep_spans_);
  instances_.clear();
  exec_frontier_.assign(replicas_.size(), 0);
  leading_.clear();
  key_table_.clear();
  waiters_.clear();
  next_instance_ = 0;
  committed_ = 0;
  executed_ = 0;

  persistor_.replay([this](const recovery::DurableRecord& rec) {
    if (rec.tag != recovery::RecordTag::kAccepted &&
        rec.tag != recovery::RecordTag::kCommitted) {
      return;  // EPaxos writes no other tags
    }
    auto [inst_id, cmd, seq, deps, status, client] =
        wire::from_bytes<InstanceRecord>(rec.body);

    if (inst_id.replica == id()) {
      next_instance_ = std::max(next_instance_, inst_id.seq + 1);
    }
    note_writer(cmd.key, inst_id, seq);
    if (rec.tag == recovery::RecordTag::kCommitted) {
      // Direct mutation (not commit_instance): replay rebuilds state without
      // re-counting commits or re-broadcasting.
      instances_[inst_id] = Instance{std::move(cmd), seq, deps, Status::kCommitted};
      leading_.erase(inst_id);  // the client was already answered
      return;
    }
    auto it = instances_.find(inst_id);
    if (it == instances_.end() || it->second.status < Status::kCommitted) {
      // Later records supersede earlier ones, but never downgrade a commit
      // (a duplicate round from a previous incarnation may replay late).
      instances_[inst_id] = Instance{std::move(cmd), seq, deps, status};
    }
    if (client) {
      LeaderBook book;
      book.seq = seq;
      book.deps = std::move(deps);
      book.in_accept_phase = (status == Status::kAccepted);
      book.attributes_changed = book.in_accept_phase;
      book.client = *client;
      leading_[inst_id] = std::move(book);
    }
  });

  // Re-execute the committed graph from an empty store.
  std::vector<InstanceId> committed_ids;
  for (const auto& [inst_id, inst] : instances_) {
    if (inst.status == Status::kCommitted) committed_ids.push_back(inst_id);
  }
  committed_ = committed_ids.size();
  for (const auto& inst_id : committed_ids) try_execute(inst_id);

  // Re-lead own uncommitted instances: the reply tallies died with the
  // crash, so restart the round (peers treat the re-broadcast as a
  // retransmission and simply re-reply).
  for (auto& [inst_id, book] : leading_) {
    const auto it = instances_.find(inst_id);
    if (it == instances_.end() || it->second.status >= Status::kCommitted) continue;
    book.preaccept_acks.clear();
    book.accept_acks.clear();
    if (const obs::SpanId s = open_wait_span("epaxos_quorum_wait"); s != 0) {
      quorum_spans_[inst_id] = s;
    }
    if (book.in_accept_phase) {
      broadcast(Accept{inst_id, it->second.command, book.seq, book.deps});
    } else {
      broadcast(PreAccept{inst_id, it->second.command, book.seq, book.deps});
    }
  }
}

void Replica::fill_catchup(recovery::CatchupReply& reply) const {
  reply.frontier = static_cast<std::int64_t>(store().applied_count());
  // EPaxos has no totally-ordered log: ship the per-owner executed
  // frontiers (the snapshot covers every instance below them) and the
  // committed instances above them, with their attributes in the aux field.
  reply.watermarks.assign(exec_frontier_.begin(), exec_frontier_.end());
  for (const auto& [inst_id, inst] : instances_) {
    if (inst.status != Status::kCommitted && inst.status != Status::kExecuted) continue;
    if (compacted(inst_id)) continue;
    reply.entries.push_back(recovery::CatchupEntry{
        0, 0, inst.command,
        wire::to_bytes(CatchupAux{inst_id, inst.seq, inst.deps,
                                  inst.status == Status::kExecuted})});
  }
}

void Replica::merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) {
  // The peer executed (and compacted) every instance below its frontiers.
  std::vector<std::uint64_t> peer_frontier(replicas_.size(), 0);
  for (std::size_t r = 0; r < std::min(peer_frontier.size(), msg.watermarks.size()); ++r) {
    peer_frontier[r] = static_cast<std::uint64_t>(msg.watermarks[r]);
  }
  const std::size_t own = rank_of(id());
  next_instance_ = std::max(next_instance_, peer_frontier[own]);
  // Own instances the peer executed were committed cluster-wide; nothing
  // left to lead.
  std::erase_if(leading_, [&](const auto& kv) { return kv.first.seq < peer_frontier[own]; });
  std::vector<CatchupAux> shipped;
  shipped.reserve(msg.entries.size());
  for (const auto& e : msg.entries) shipped.push_back(wire::from_bytes<CatchupAux>(e.aux));
  // Only the first qualifying reply installs a snapshot: once rejoined the
  // store reflects live executions a later reply's snapshot (taken at the
  // peer's earlier reply time, or by a peer with a different execution
  // frontier) may not contain — overwriting would silently lose them while
  // their instances stay marked executed. Later replies still merge their
  // committed-instance sets below, which is idempotent. A reply qualifies
  // when the peer has applied more, or when it executed and compacted an
  // instance this replica does not hold: only the snapshot still has that
  // instance's effect, whatever the applied counts say.
  const bool installed = catching_up() && (msg.applied > store().applied_count() ||
                                            !holds_all_below(peer_frontier));
  std::vector<InstanceId> rerun;
  if (installed) {
    install_snapshot(msg, bytes);
    // The snapshot reflects every instance below the peer's frontiers: adopt
    // them, and release whatever was blocked on those instances. Erasing
    // them waits for on_rejoined(): the re-announce loop below still
    // reads the own-led instances replayed from the durable log.
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      exec_frontier_[r] = std::max(exec_frontier_[r], peer_frontier[r]);
    }
    // Replayed instances the peer has not executed are not in its snapshot:
    // they run again on top of it, once the shipped instances they may
    // depend on are merged below.
    std::unordered_set<InstanceId> peer_executed;
    for (const auto& s : shipped) {
      if (s.executed) peer_executed.insert(s.instance);
    }
    for (auto& [inst_id, inst] : instances_) {
      if (inst.status != Status::kExecuted || compacted(inst_id) ||
          peer_executed.contains(inst_id)) {
        continue;
      }
      inst.status = Status::kCommitted;
      --executed_;
      rerun.push_back(inst_id);
    }
    std::vector<InstanceId> released;
    for (const auto& [dep, blocked] : waiters_) {
      if (compacted(dep)) released.push_back(dep);
    }
    for (const auto& dep : released) wake_waiters(dep);
  }
  std::unordered_set<InstanceId> peer_knows;
  peer_knows.reserve(shipped.size());
  for (std::size_t i = 0; i < shipped.size(); ++i) {
    const InstanceId& inst_id = shipped[i].instance;
    const std::uint64_t seq = shipped[i].seq;
    const sm::Command& command = msg.entries[i].command;
    peer_knows.insert(inst_id);
    if (inst_id.replica == id()) {
      next_instance_ = std::max(next_instance_, inst_id.seq + 1);
    }
    if (compacted(inst_id)) continue;
    auto it = instances_.find(inst_id);
    if (it != instances_.end() && it->second.status == Status::kExecuted) continue;
    note_writer(command.key, inst_id, seq);
    leading_.erase(inst_id);  // committed cluster-wide; nothing left to lead
    if (installed && shipped[i].executed) {
      // The installed snapshot already reflects this command's execution:
      // mark it executed without re-applying, and release its waiters.
      instances_[inst_id] =
          Instance{command, seq, std::move(shipped[i].deps), Status::kExecuted};
      wake_waiters(inst_id);
    } else {
      commit_instance(inst_id, command, seq, shipped[i].deps, /*announce=*/false);
    }
  }
  for (const auto& inst_id : rerun) try_execute(inst_id);
  if (catching_up()) {
    // Re-announce own-led commits this peer does not know. A crash inside
    // the durable-sync window cancels the Commit broadcast after the
    // decision is already durable, and replay deliberately does not
    // re-broadcast — so a peer that was live the whole time (and thus will
    // never catch up itself) would block forever on the instance, wedging
    // every later instance that depends on it. Duplicates are no-ops at
    // the receiver (commit_instance is idempotent).
    for (const auto& [inst_id, inst] : instances_) {
      if (inst_id.replica != id()) continue;
      if (inst.status != Status::kCommitted && inst.status != Status::kExecuted) continue;
      if (inst_id.seq < peer_frontier[own] || peer_knows.contains(inst_id)) continue;
      broadcast(Commit{inst_id, inst.command, inst.seq, inst.deps});
    }
  }
}

void Replica::on_rejoined() {
  // Compaction was held off while catching up; drop what the adopted
  // frontiers cover, then advance them over the executed instances.
  std::erase_if(instances_, [this](const auto& kv) { return compacted(kv.first); });
  for (std::size_t r = 0; r < replicas_.size(); ++r) compact(r);
}

void Replica::commit_instance(const InstanceId& inst_id, const sm::Command& cmd,
                              std::uint64_t seq, const DepList& deps, bool announce) {
  if (compacted(inst_id)) return;  // executed: idempotent
  auto it = instances_.find(inst_id);
  if (it == instances_.end()) {
    it = instances_.emplace(inst_id, Instance{cmd, seq, deps, Status::kCommitted}).first;
  } else {
    if (it->second.status == Status::kCommitted || it->second.status == Status::kExecuted) {
      return;  // idempotent
    }
    it->second.seq = seq;
    it->second.deps = deps;
    it->second.status = Status::kCommitted;
  }
  ++committed_;
  obs_committed_.inc();
  const auto qspan_it = quorum_spans_.find(inst_id);
  if (qspan_it != quorum_spans_.end()) {
    close_wait_span(qspan_it->second);
    quorum_spans_.erase(qspan_it);
  }
  if (announce) broadcast(Commit{inst_id, cmd, seq, deps});
  try_execute(inst_id);
  wake_waiters(inst_id);
}

void Replica::wake_waiters(const InstanceId& dep) {
  auto w = waiters_.find(dep);
  if (w == waiters_.end()) return;
  const std::vector<InstanceId> blocked = std::move(w->second);
  waiters_.erase(w);
  for (const auto& b : blocked) {
    const auto dspan_it = dep_spans_.find(b);
    if (dspan_it != dep_spans_.end()) {
      close_wait_span(dspan_it->second);
      dep_spans_.erase(dspan_it);
    }
    try_execute(b);
  }
}

void Replica::compact(std::size_t rank) {
  std::uint64_t& frontier = exec_frontier_[rank];
  for (;;) {
    const auto it = instances_.find(InstanceId{replicas_[rank], frontier});
    if (it == instances_.end() || it->second.status != Status::kExecuted) return;
    instances_.erase(it);
    ++frontier;
  }
}

bool Replica::holds_all_below(const std::vector<std::uint64_t>& frontier) const {
  std::vector<std::uint64_t> held(replicas_.size(), 0);
  for (const auto& [inst_id, inst] : instances_) {
    const std::size_t r = rank_of(inst_id.replica);
    if (inst.status >= Status::kCommitted && inst_id.seq >= exec_frontier_[r] &&
        inst_id.seq < frontier[r]) {
      ++held[r];
    }
  }
  for (std::size_t r = 0; r < held.size(); ++r) {
    if (frontier[r] > exec_frontier_[r] && held[r] < frontier[r] - exec_frontier_[r]) {
      return false;
    }
  }
  return true;
}

void Replica::try_execute(const InstanceId& root) {
  if (compacted(root)) return;
  auto it = instances_.find(root);
  if (it == instances_.end() || it->second.status != Status::kCommitted) return;
  execute_scc_from(root);
}

void Replica::execute_scc_from(const InstanceId& root) {
  // Iterative Tarjan over the committed dependency graph. Edges run from an
  // instance to its dependencies; executed instances are terminal. If any
  // reachable dependency is not yet committed, execution of `root` is
  // deferred until that dependency commits.
  struct NodeState {
    std::size_t index = 0;
    std::size_t lowlink = 0;
    bool on_stack = false;
  };
  std::unordered_map<InstanceId, NodeState> state;
  std::vector<InstanceId> stack;               // Tarjan stack
  std::vector<std::vector<InstanceId>> sccs;   // emitted in dependency-first order
  std::size_t next_index = 0;

  struct Frame {
    InstanceId node;
    std::size_t dep_cursor = 0;
  };
  std::vector<Frame> call_stack;
  call_stack.push_back({root, 0});
  state[root] = {next_index, next_index, true};
  ++next_index;
  stack.push_back(root);

  while (!call_stack.empty()) {
    Frame& frame = call_stack.back();
    Instance& inst = instances_.at(frame.node);
    if (frame.dep_cursor < inst.deps.size()) {
      const InstanceId dep = inst.deps[frame.dep_cursor++];
      if (compacted(dep)) continue;  // executed
      auto dep_it = instances_.find(dep);
      if (dep_it == instances_.end() ||
          (dep_it->second.status != Status::kCommitted &&
           dep_it->second.status != Status::kExecuted)) {
        // Uncommitted dependency: defer the whole attempt.
        waiters_[dep].push_back(root);
        if (span_store() != nullptr && dep_spans_.find(root) == dep_spans_.end()) {
          if (const obs::SpanId s = open_wait_span("epaxos_dep_wait"); s != 0) {
            dep_spans_[root] = s;
          }
        }
        return;
      }
      if (dep_it->second.status == Status::kExecuted) continue;
      auto st = state.find(dep);
      if (st == state.end()) {
        state[dep] = {next_index, next_index, true};
        ++next_index;
        stack.push_back(dep);
        call_stack.push_back({dep, 0});
      } else if (st->second.on_stack) {
        auto& me = state.at(frame.node);
        me.lowlink = std::min(me.lowlink, st->second.index);
      }
      continue;
    }
    // Node finished: maybe emit an SCC.
    const NodeState me = state.at(frame.node);
    if (me.lowlink == me.index) {
      std::vector<InstanceId> scc;
      for (;;) {
        const InstanceId top = stack.back();
        stack.pop_back();
        state.at(top).on_stack = false;
        scc.push_back(top);
        if (top == frame.node) break;
      }
      sccs.push_back(std::move(scc));
    }
    const InstanceId finished = frame.node;
    call_stack.pop_back();
    if (!call_stack.empty()) {
      auto& parent = state.at(call_stack.back().node);
      parent.lowlink = std::min(parent.lowlink, state.at(finished).lowlink);
    }
  }

  // SCCs are emitted dependencies-first; execute each, ordering commands
  // within a component by (seq, instance id).
  for (auto& scc : sccs) {
    std::sort(scc.begin(), scc.end(), [this](const InstanceId& a, const InstanceId& b) {
      const Instance& ia = instances_.at(a);
      const Instance& ib = instances_.at(b);
      if (ia.seq != ib.seq) return ia.seq < ib.seq;
      return a < b;
    });
    for (const auto& inst_id : scc) {
      Instance& inst = instances_.at(inst_id);
      if (inst.status == Status::kExecuted) continue;
      inst.status = Status::kExecuted;
      ++executed_;
      execute(inst.command);
    }
  }
  // Compaction waits while catching up; on_rejoined() catches it up.
  if (catching_up()) return;
  for (const auto& scc : sccs) {
    for (const auto& inst_id : scc) compact(rank_of(inst_id.replica));
  }
}

}  // namespace domino::epaxos

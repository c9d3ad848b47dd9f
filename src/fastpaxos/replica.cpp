#include "fastpaxos/replica.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "recovery/messages.h"

namespace domino::fastpaxos {

namespace {
/// Catch-up request retransmit interval for a recovering replica.
constexpr Duration kCatchupRetryInterval = milliseconds(100);
}  // namespace

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, NodeId coordinator,
                 Duration recovery_timeout, sim::LocalClock clock)
    : rpc::Node(id, dc, context, clock),
      replicas_(std::move(replicas)),
      coordinator_(coordinator),
      recovery_timeout_(recovery_timeout) {
  if (std::find(replicas_.begin(), replicas_.end(), id) == replicas_.end()) {
    throw std::invalid_argument("fastpaxos::Replica: id not in replica set");
  }
  obs_accepts_ = obs_sink().counter("fastpaxos.accepts");
  obs_fast_ = obs_sink().counter("fastpaxos.fast_commits");
  obs_slow_ = obs_sink().counter("fastpaxos.slow_commits");
  obs_executed_ = obs_sink().counter("fastpaxos.executed");
}

void Replica::on_packet(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kFastPaxosClientRequest:
      handle_client_request(packet);
      break;
    case wire::MessageType::kFastPaxosAcceptNotice:
      handle_accept_notice(packet.src, packet.payload);
      break;
    case wire::MessageType::kFastPaxosRecoveryAccept:
      handle_recovery_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kFastPaxosRecoveryReply:
      handle_recovery_reply(packet.payload);
      break;
    case wire::MessageType::kFastPaxosCommit:
      handle_commit(packet.payload);
      break;
    case wire::MessageType::kCatchupRequest:
      handle_catchup_request(packet.src, packet.payload);
      break;
    case wire::MessageType::kCatchupReply:
      handle_catchup_reply(packet.payload);
      break;
    default:
      break;
  }
}

void Replica::enable_durability(recovery::DurableStore& store) {
  persistor_.bind(store, id(), [this](Duration delay, std::function<void()> fn) {
    after(delay, std::move(fn));
  });
}

// ---------------------------------------------------------------- acceptor

void Replica::handle_client_request(const net::Packet& packet) {
  if (catching_up_) return;  // not rejoined yet; the client's retry will land
  const auto req = wire::decode_message<ClientRequest>(packet.payload);
  const RequestId rid = req.command.id;

  if (executed_.contains(rid)) {
    // A retry of a request that already won: the coordinator's reply was
    // lost (it crashed between deciding and sending); answer directly.
    send(rid.client, ClientReply{rid});
    return;
  }
  auto it = assignment_.find(rid);
  if (it != assignment_.end()) {
    const std::uint64_t old_index = it->second;
    const auto* entry = log_.entry(old_index);  // the log holds only decisions
    if (entry != nullptr && entry->command.id == rid) {
      send(rid.client, ClientReply{rid});  // won, not yet executed here
      return;
    }
    if (!decided(old_index)) {
      // Still pending: re-notify the coordinator, whose tally for this
      // index may have died with a crash. Idempotent on a live tally.
      send(coordinator_, AcceptNotice{old_index, req.command});
      return;
    }
    // The request lost its old position; fall through and assign a new one.
  }

  // The acceptance is recorded as an assignment only: the log holds decided
  // commands, and the coordinator tallies acceptances from the notices.
  const std::uint64_t index = next_index_++;
  obs_accepts_.inc();
  assign(rid, index);

  const sm::Command command = req.command;
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        wire::ByteWriter w;
        w.varint(index);
        command.encode(w);
        return w.take();
      },
      [this, index, command, client = rid.client] {
        const AcceptNotice notice{index, command};
        send(coordinator_, notice);
        send(client, notice);
      });
}

void Replica::handle_recovery_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<RecoveryAccept>(payload);
  // Ballot 1 from the (only) coordinator always supersedes the ballot-0
  // acceptance; the actual log update happens on Commit.
  send(from, RecoveryReply{msg.index});
}

void Replica::handle_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<Commit>(payload);
  if (msg.is_noop) {
    log_.skip(msg.index, msg.index);
  } else {
    log_.commit(msg.index, msg.command);
  }
  // Nothing is externalized on this path, so the persist is fire-and-forget.
  persistor_.persist(recovery::RecordTag::kCommitted, [&] {
    wire::ByteWriter w;
    w.varint(msg.index);
    w.boolean(msg.is_noop);
    msg.command.encode(w);
    return w.take();
  });
  execute_ready();
}

// ------------------------------------------------------------- coordinator

void Replica::handle_accept_notice(NodeId from, const wire::Payload& payload) {
  if (!is_coordinator()) return;
  const auto msg = wire::decode_message<AcceptNotice>(payload);
  if (decided(msg.index)) {
    // Late report for a decided position, whose tally may be gone. Re-send
    // the decision to the reporter: if it is a recovering acceptor retrying
    // a request whose Commit died with a crash, this is what unblocks its
    // log.
    if (log_.is_skipped(msg.index)) {
      send(from, Commit{msg.index, /*is_noop=*/true, {}});
    } else if (msg.index < decided_commands_.size()) {
      send(from, Commit{msg.index, /*is_noop=*/false, decided_commands_[msg.index]});
    }
    // If this request lost, get it re-proposed.
    if (!committed_.contains(msg.command.id)) {
      for (NodeId r : replicas_) send(r, ClientRequest{msg.command});
    }
    return;
  }
  // Undecided, so creating the tally here cannot re-open a position.
  tallies_[msg.index].reports[from] = msg.command;
  maybe_resolve(msg.index);
}

void Replica::maybe_resolve(std::uint64_t index) {
  Tally& tally = tallies_.at(index);
  if (tally.recovering) return;

  // Count acceptances per request.
  std::unordered_map<RequestId, std::size_t> counts;
  for (const auto& [acceptor, cmd] : tally.reports) {
    (void)acceptor;
    ++counts[cmd.id];
  }
  const std::size_t q = measure::supermajority(replicas_.size());
  for (const auto& [rid, count] : counts) {
    if (count >= q) {
      // Fast path: a supermajority accepted the same request here.
      sm::Command winner;
      for (const auto& [acceptor, cmd] : tally.reports) {
        (void)acceptor;
        if (cmd.id == rid) {
          winner = cmd;
          break;
        }
      }
      finish_commit(index, /*is_noop=*/false, winner, /*was_fast=*/true);
      return;
    }
  }

  if (tally.reports.size() == replicas_.size()) {
    // Everyone reported and nobody reached a supermajority: collision.
    start_recovery(index);
    return;
  }

  if (!tally.timer_armed) {
    tally.timer_armed = true;
    after(recovery_timeout_, [this, index] {
      auto it = tallies_.find(index);
      if (it == tallies_.end() || decided(index) || it->second.recovering) return;
      if (it->second.reports.size() >= measure::majority(replicas_.size())) {
        start_recovery(index);
      }
    });
  }
}

void Replica::start_recovery(std::uint64_t index) {
  Tally& tally = tallies_.at(index);
  tally.recovering = true;
  if (const obs::SpanId s = open_wait_span("fp_recovery"); s != 0) {
    recovery_spans_[index] = s;
  }

  // Pick the most-accepted request that is not already committed elsewhere;
  // no-op if none. (The coordinator has ballot-0 reports from everyone who
  // responded; with no fast-path winner, any reported value is safe here in
  // the crash-free ballot-0/ballot-1 regime.)
  std::unordered_map<RequestId, std::size_t> counts;
  for (const auto& [acceptor, cmd] : tally.reports) {
    (void)acceptor;
    if (committed_.contains(cmd.id)) continue;
    if (recovery_chosen_.contains(cmd.id)) continue;  // claimed by another index
    ++counts[cmd.id];
  }
  Commit choice;
  choice.index = index;
  if (counts.empty()) {
    choice.is_noop = true;
  } else {
    RequestId best{};
    std::size_t best_count = 0;
    bool first = true;
    for (const auto& [rid, count] : counts) {
      if (first || count > best_count || (count == best_count && rid < best)) {
        best = rid;
        best_count = count;
        first = false;
      }
    }
    for (const auto& [acceptor, cmd] : tally.reports) {
      (void)acceptor;
      if (cmd.id == best) {
        choice.command = cmd;
        break;
      }
    }
  }
  if (!choice.is_noop) recovery_chosen_.insert(choice.command.id);
  tally.recovery_choice = choice;
  tally.recovery_acks = 1;  // the coordinator accepts its own proposal

  RecoveryAccept msg{index, choice.is_noop, choice.command};
  for (NodeId r : replicas_) {
    if (r != id()) send(r, msg);
  }
}

void Replica::handle_recovery_reply(const wire::Payload& payload) {
  if (!is_coordinator()) return;
  const auto msg = wire::decode_message<RecoveryReply>(payload);
  auto it = tallies_.find(msg.index);
  if (it == tallies_.end() || decided(msg.index) || !it->second.recovering) return;
  Tally& tally = it->second;
  if (++tally.recovery_acks < measure::majority(replicas_.size())) return;
  const Commit choice = *tally.recovery_choice;
  finish_commit(msg.index, choice.is_noop, choice.command, /*was_fast=*/false);
}

void Replica::finish_commit(std::uint64_t index, bool is_noop, const sm::Command& command,
                            bool was_fast) {
  const auto rspan_it = recovery_spans_.find(index);
  if (rspan_it != recovery_spans_.end()) {
    close_wait_span(rspan_it->second);
    recovery_spans_.erase(rspan_it);
  }
  if (was_fast) {
    ++fast_commits_;
    obs_fast_.inc();
  } else {
    ++slow_commits_;
    obs_slow_.inc();
  }

  if (!is_noop) {
    record_commit(index, command);
    recovery_chosen_.erase(command.id);
    log_.commit(index, command);
  } else {
    log_.skip(index, index);
  }

  // The decision is externalized by the Commit broadcast and the client
  // reply, so it must be durable first.
  persistor_.persist(
      recovery::RecordTag::kCommitted,
      [&] {
        wire::ByteWriter w;
        w.varint(index);
        w.boolean(is_noop);
        command.encode(w);
        return w.take();
      },
      [this, index, is_noop, command] {
        // Notify acceptors first (FIFO: re-proposals below must arrive after
        // the Commit so acceptors see their old assignment resolved before
        // they are asked to reassign).
        const Commit commit{index, is_noop, command};
        for (NodeId r : replicas_) {
          if (r != id()) send(r, commit);
        }
        if (!is_noop) send(command.id.client, ClientReply{command.id});
        repropose_losers(index);
      });
  execute_ready();
}

void Replica::repropose_losers(std::uint64_t index) {
  const auto it = tallies_.find(index);
  if (it == tallies_.end()) return;
  std::unordered_map<RequestId, sm::Command> losers;
  for (const auto& [acceptor, cmd] : it->second.reports) {
    (void)acceptor;
    if (committed_.contains(cmd.id)) continue;  // the winner, or decided elsewhere
    losers.emplace(cmd.id, cmd);
  }
  // The position is decided and nothing reads its reports any more.
  tallies_.erase(it);
  for (const auto& [rid, cmd] : losers) {
    (void)rid;
    for (NodeId r : replicas_) send(r, ClientRequest{cmd});
  }
}

void Replica::record_commit(std::uint64_t index, const sm::Command& command) {
  if (decided_commands_.size() <= index) decided_commands_.resize(index + 1);
  decided_commands_[index] = command;
  committed_.insert(command.id);
}

void Replica::restart() {
  persistor_.begin_restart();
  for (auto& [index, span] : recovery_spans_) {
    (void)index;
    close_wait_span(span);
  }
  recovery_spans_.clear();
  log_ = log::IndexLog{};
  store_ = sm::KvStore{};
  assignment_.clear();
  assigned_at_.clear();
  executed_.clear();
  next_index_ = 0;
  tallies_.clear();
  decided_commands_.clear();
  committed_.clear();
  recovery_chosen_.clear();
  fast_commits_ = 0;
  slow_commits_ = 0;
  catching_up_ = true;
  recovery_started_at_ = true_now();
  obs_sink().record(obs::TraceEvent{
      .at = true_now(),
      .kind = obs::EventKind::kRecoveryStart,
      .node = id(),
      .value = static_cast<std::int64_t>(persistor_.epoch())});

  std::uint64_t max_index = 0;
  bool any = false;
  persistor_.replay([this, &max_index, &any](const recovery::DurableRecord& rec) {
    wire::ByteReader r(rec.body);
    switch (rec.tag) {
      case recovery::RecordTag::kAccepted: {
        const std::uint64_t index = r.varint();
        assign(sm::Command::decode(r).id, index);
        next_index_ = std::max(next_index_, index + 1);
        max_index = std::max(max_index, index);
        any = true;
        break;
      }
      case recovery::RecordTag::kCommitted: {
        const std::uint64_t index = r.varint();
        const bool is_noop = r.boolean();
        sm::Command cmd = sm::Command::decode(r);
        if (is_noop) {
          log_.skip(index, index);
        } else {
          if (is_coordinator()) record_commit(index, cmd);
          log_.commit(index, std::move(cmd));
        }
        max_index = std::max(max_index, index);
        any = true;
        break;
      }
      default:
        break;  // Fast Paxos writes no other tags
    }
  });
  execute_ready();

  // Coordinator gap-filling: tallies for undecided indices died with the
  // crash, and acceptors only re-notify when their client retries. Arm a
  // recovery timer for every undecided index at or below the highest index
  // seen, so positions whose reporters have all moved on still resolve (to
  // no-ops). Safe with an empty tally: this coordinator is the only
  // learner, so a value can only have been chosen if its decision is in our
  // durable log — and those replayed into the log above.
  if (is_coordinator() && any) {
    for (std::uint64_t index = log_.execution_frontier(); index <= max_index; ++index) {
      if (decided(index)) continue;
      tallies_[index].timer_armed = true;
      after(recovery_timeout_, [this, index] {
        auto it = tallies_.find(index);
        if (it == tallies_.end() || decided(index) || it->second.recovering) return;
        start_recovery(index);
      });
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
  // No-op decisions are one-shot Commit broadcasts in Fast Paxos, so a
  // recovering replica cannot re-learn them from retransmissions: ship the
  // skipped ranges above the frontier explicitly (aux = range end).
  for (const auto& [lo, hi] : log_.skipped_after(log_.execution_frontier())) {
    wire::ByteWriter aux;
    aux.varint(hi);
    reply.entries.push_back(recovery::CatchupEntry{
        static_cast<std::int64_t>(lo), 0, sm::Command{}, aux.take()});
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
    const auto frontier = static_cast<std::uint64_t>(msg.frontier);
    log_.fast_forward(frontier);
    tallies_.erase(tallies_.begin(), tallies_.lower_bound(frontier));
    persistor_.note_catchup_install(payload.size(), true_now() - recovery_started_at_);
  }
  for (const auto& e : msg.entries) {
    if (!e.aux.empty()) {  // skipped range [pos, aux]
      wire::ByteReader ar(e.aux);
      const std::uint64_t hi = ar.varint();
      const auto lo =
          std::max(static_cast<std::uint64_t>(e.pos), log_.execution_frontier());
      if (hi < lo) continue;
      log_.skip(lo, hi);
      tallies_.erase(tallies_.lower_bound(lo), tallies_.upper_bound(hi));
      continue;
    }
    if (e.pos < static_cast<std::int64_t>(log_.execution_frontier())) continue;
    const auto index = static_cast<std::uint64_t>(e.pos);
    log_.commit(index, e.command);
    if (is_coordinator()) record_commit(index, e.command);
    tallies_.erase(index);
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

void Replica::assign(const RequestId& rid, std::uint64_t index) {
  assignment_[rid] = index;
  assigned_at_[index] = rid;
}

void Replica::execute_ready() {
  for (auto& [index, command] : log_.drain_executable()) {
    const auto a = assignment_.find(command.id);
    if (a != assignment_.end() && a->second == index) executed_.insert(command.id);
    store_.apply(command);
    obs_executed_.inc();
    if (exec_hook_) exec_hook_(command.id, true_now());
  }
  // Every position below the frontier is decided. An assignment there either
  // executed (executed_ answers its retries) or lost, and a retry of a lost
  // request takes a new index with or without it.
  const auto below = assigned_at_.lower_bound(log_.execution_frontier());
  for (auto it = assigned_at_.begin(); it != below; ++it) {
    const auto a = assignment_.find(it->second);
    if (a != assignment_.end() && a->second == it->first) assignment_.erase(a);
  }
  assigned_at_.erase(assigned_at_.begin(), below);
}

}  // namespace domino::fastpaxos

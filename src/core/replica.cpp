#include "core/replica.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace domino::core {

namespace {
/// Durable kAccepted record: an acceptance at (ts, lane). `dm_leader` marks
/// the record as written by the lane's own leader (it doubles as the
/// timestamp reservation: replay raises dm_last_assigned_ past it, so no
/// separate kReservation record is needed).
struct AcceptedRecord {
  std::int64_t ts = 0;
  std::uint32_t lane = 0;
  sm::Command command;
  bool dm_leader = false;
  bool reply_via_dfp = false;

  static auto fields(auto& m) {
    return std::tie(m.ts, m.lane, m.command, m.dm_leader, m.reply_via_dfp);
  }
};

/// Durable kCommitted record: a resolution at (ts, lane). The command may
/// be omitted when a preceding kAccepted record of the same position is
/// guaranteed to supply it (the lane leader's own commits).
struct CommittedRecord {
  std::int64_t ts = 0;
  std::uint32_t lane = 0;
  bool is_noop = false;
  std::optional<sm::Command> command;

  static auto fields(auto& m) { return std::tie(m.ts, m.lane, m.is_noop, m.command); }
};
}  // namespace

Replica::Replica(NodeId id, std::size_t dc, rpc::Context& context,
                 std::vector<NodeId> replicas, NodeId coordinator, ReplicaConfig config,
                 sim::LocalClock clock)
    : recovery::Replica(id, dc, context, std::move(replicas), "domino.executed", clock),
      coordinator_(coordinator),
      config_(config),
      log_(replicas_.size() + 1),
      prober_(*this, replicas_, config.prober),
      replica_watermarks_(replicas_.size(), TimePoint::epoch()) {
  const auto it = std::find(replicas_.begin(), replicas_.end(), id);
  if (it == replicas_.end()) throw std::invalid_argument("core::Replica: id not in set");
  rank_ = static_cast<std::size_t>(it - replicas_.begin());
  init_obs();
}

void Replica::init_obs() {
  const obs::Sink& sink = obs_sink();
  obs_dfp_fast_ = sink.counter("domino.dfp.fast_commits");
  obs_dfp_slow_ = sink.counter("domino.dfp.slow_commits");
  obs_dfp_noops_ = sink.counter("domino.dfp.noop_resolutions");
  obs_dm_commits_ = sink.counter("domino.dm.commits");
  obs_rerouted_ = sink.counter("domino.dfp.rerouted_via_dm");
}

void Replica::start() {
  prober_.start();
  heartbeat_.start(context(), config_.heartbeat_interval, config_.heartbeat_interval,
                   [this] { broadcast_heartbeat(); });
}

std::size_t Replica::rank_of(NodeId node) const {
  const auto it = std::find(replicas_.begin(), replicas_.end(), node);
  return it == replicas_.end() ? replicas_.size()
                               : static_cast<std::size_t>(it - replicas_.begin());
}

Duration Replica::replication_latency_estimate() const {
  const Duration l = measure::estimate_replication_latency(prober_, id(), replicas_);
  return l == Duration::max() ? Duration::zero() : l;
}

void Replica::on_message(const net::Packet& packet) {
  switch (wire::peek_type(packet.payload)) {
    case wire::MessageType::kProbe:
      handle_probe(packet);
      break;
    case wire::MessageType::kProbeReply:
      prober_.on_probe_reply(packet.src,
                             wire::decode_message<measure::ProbeReply>(packet.payload));
      break;
    case wire::MessageType::kDfpPropose:
      handle_dfp_propose(packet);
      break;
    case wire::MessageType::kDfpAcceptNotice:
      handle_dfp_accept_notice(packet.src, packet.payload);
      break;
    case wire::MessageType::kDfpCommit:
      handle_dfp_commit(packet.payload);
      break;
    case wire::MessageType::kDfpRecoveryAccept:
      handle_dfp_recovery_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kDfpRecoveryReply:
      handle_dfp_recovery_reply(packet.payload);
      break;
    case wire::MessageType::kDominoHeartbeat:
      handle_heartbeat(packet.src, packet.payload);
      break;
    case wire::MessageType::kDmPropose:
      handle_dm_propose(packet);
      break;
    case wire::MessageType::kDmAccept:
      handle_dm_accept(packet.src, packet.payload);
      break;
    case wire::MessageType::kDmAcceptReply:
      handle_dm_accept_reply(packet.payload);
      break;
    case wire::MessageType::kDmCommit:
      handle_dm_commit(packet.payload);
      break;
    case wire::MessageType::kRangeRecover:
      handle_range_recover(packet.src, packet.payload);
      break;
    case wire::MessageType::kRangeReply:
      handle_range_reply(packet.src, packet.payload);
      break;
    case wire::MessageType::kRangeResolve:
      apply_range_resolve(wire::decode_message<RangeResolve>(packet.payload));
      break;
    default:
      break;
  }
}

void Replica::handle_probe(const net::Packet& packet) {
  const auto probe = wire::decode_message<measure::Probe>(packet.payload);
  send(packet.src,
       measure::Prober::make_reply(probe, local_now(), replication_latency_estimate()));
}

// ------------------------------------------------------------ DFP acceptor

void Replica::handle_dfp_propose(const net::Packet& packet) {
  const auto msg = wire::decode_message<DfpPropose>(packet.payload);
  const log::LogPosition pos{msg.ts, dfp_lane()};

  // Accept iff our clock has not yet passed the timestamp (Section 5.3.2's
  // optimistic no-op acceptance means a passed position is already taken by
  // a no-op; an arrival exactly at its timestamp is still in time, matching
  // Section 3's "equal to or smaller than the predicted timestamp"), the
  // position is not already resolved (committed frontier), and no different
  // command occupies it (client timestamp collision).
  bool accept = !catching_up() && local_now().nanos() <= msg.ts && !log_.is_resolved(pos);
  if (accept) {
    const auto* existing = log_.entry(pos);
    if (existing != nullptr && existing->command.id != msg.command.id) accept = false;
  }
  if (accept) {
    log_.accept(pos, msg.command);
    // Hold the advertised watermark at ts until the notice leaves (below).
    watermark_holds_.insert(msg.ts);
  }

  DfpAcceptNotice notice;
  notice.ts = msg.ts;
  notice.accepted = accept;
  notice.command = msg.command;
  notice.sender_local_time = advertised_watermark();
  const auto externalize = [this, notice, accept, ts = msg.ts,
                            client = msg.command.id.client] {
    if (accept) release_watermark_hold(ts);
    if (config_.all_replicas_learn) {
      // Section 5.7: every replica is a learner, so acceptances broadcast.
      broadcast(notice);
    } else if (!is_coordinator()) {
      send(coordinator_, notice);
    }
    note_replica_watermark(rank_, notice.sender_local_time);
    process_dfp_notice(notice);
    send(client, notice);
  };
  if (accept) {
    // An acceptance counts toward the client-observed fast quorum, so it
    // must be durable before any notice leaves. A rejection needs no
    // record: the promise it makes — "my clock passed ts" — is re-honored
    // automatically after an amnesiac restart, because the local clock is
    // monotonic across crashes and this replica can never accept at ts
    // again.
    persistor_.persist(
        recovery::RecordTag::kAccepted,
        [&] { return wire::to_bytes(AcceptedRecord{msg.ts, dfp_lane(), msg.command}); },
        externalize);
  } else {
    externalize();
  }
}

void Replica::handle_dfp_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<DfpCommit>(payload);
  const log::LogPosition pos{msg.ts, dfp_lane()};
  if (msg.is_noop) {
    // Resolve only this position. Advancing the lane watermark to ts + 1
    // would blanket-noop every empty position below it, and positions
    // resolve out of order (independent recovery rounds): an earlier
    // position this replica rejected — empty here, but committed with a
    // command elsewhere — would be silently swallowed before its
    // DfpCommit arrives.
    log_.resolve_as_noop(pos);
  } else {
    log_.commit(pos, msg.command);
    dfp_committed_.insert(msg.command.id);
  }
  // Nothing is externalized on this learner path; fire-and-forget.
  persist_committed(pos, msg.is_noop, msg.is_noop ? nullptr : &msg.command);
  // Settle any learner-side tally for this position.
  auto it = dfp_positions_.find(msg.ts);
  if (it != dfp_positions_.end()) {
    it->second.resolved = true;
    if (!msg.is_noop) it->second.winner = msg.command.id;
  }
  execute_ready();
}

void Replica::handle_dfp_recovery_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<DfpRecoveryAccept>(payload);
  // Ballot 1 from the single coordinator supersedes our ballot-0 choice;
  // the durable state change lands with the DfpCommit that follows.
  send(from, DfpRecoveryReply{msg.ts});
}

// --------------------------------------------------------- DFP coordinator

void Replica::handle_dfp_accept_notice(NodeId from, const wire::Payload& payload) {
  if (!is_coordinator() && !config_.all_replicas_learn) return;
  const auto msg = wire::decode_message<DfpAcceptNotice>(payload);
  const std::size_t from_rank = rank_of(from);
  if (from_rank < replicas_.size()) {
    note_replica_watermark(from_rank, msg.sender_local_time);
  }
  process_dfp_notice(msg);
}

void Replica::process_dfp_notice(const DfpAcceptNotice& msg) {
  if (dfp_committed_.contains(msg.command.id)) return;  // late duplicate

  // A notice for a position already behind the committed frontier: the
  // position resolved as no-op; the coordinator routes the late request
  // through DM and releases any acceptor stuck with a blocked entry.
  if (msg.ts < commit_frontier_ && !dfp_positions_.contains(msg.ts)) {
    if (!is_coordinator()) return;
    if (msg.accepted) {
      broadcast(DfpCommit{msg.ts, true, {}});
      log_.advance_watermark(dfp_lane(), msg.ts + 1);
    }
    reroute_via_dm(msg.command);
    return;
  }

  DfpPosition& pos = dfp_positions_[msg.ts];
  if (pos.resolved) {
    // The request cannot commit at this position any more (unless it is the
    // winner); the coordinator routes it through DM instead.
    if (is_coordinator() && (!pos.winner || *pos.winner != msg.command.id)) {
      reroute_via_dm(msg.command);
    }
    return;
  }

  auto tally = std::find_if(pos.tallies.begin(), pos.tallies.end(),
                            [&](const CommandTally& t) {
                              return t.command.id == msg.command.id;
                            });
  if (tally == pos.tallies.end()) {
    pos.tallies.push_back(CommandTally{msg.command, 0, 0});
    tally = std::prev(pos.tallies.end());
  }
  msg.accepted ? ++tally->accepts : ++tally->rejects;
  coordinator_check(msg.ts);
}

TimePoint Replica::advertised_watermark() const {
  TimePoint adv = local_now();
  if (!watermark_holds_.empty()) {
    // A watermark of V covers positions strictly below V, so advertising
    // exactly the oldest held timestamp keeps that position open.
    const TimePoint held = TimePoint::epoch() + nanoseconds(*watermark_holds_.begin());
    if (held < adv) adv = held;
  }
  return adv;
}

void Replica::release_watermark_hold(std::int64_t ts) {
  const auto it = watermark_holds_.find(ts);
  if (it != watermark_holds_.end()) watermark_holds_.erase(it);
}

void Replica::note_replica_watermark(std::size_t rank, TimePoint watermark) {
  if (rank >= replica_watermarks_.size()) return;
  replica_watermarks_[rank] = std::max(replica_watermarks_[rank], watermark);
}

void Replica::coordinator_check(std::int64_t ts) {
  auto it = dfp_positions_.find(ts);
  if (it == dfp_positions_.end()) return;
  DfpPosition& pos = it->second;
  if (pos.resolved || pos.recovering) return;

  const std::size_t n = replicas_.size();
  const std::size_t q = measure::supermajority(n);
  bool all_dead = !pos.tallies.empty();
  for (const CommandTally& t : pos.tallies) {
    if (t.accepts >= q) {
      // Fast path: a supermajority accepted the same command here.
      if (is_coordinator()) {
        resolve_dfp(ts, /*is_noop=*/false, t.command, /*was_fast=*/true);
      } else {
        // Learner-side fast commit (Section 5.7): apply locally; the
        // coordinator's DfpCommit is then a no-op here.
        pos.resolved = true;
        pos.winner = t.command.id;
        dfp_committed_.insert(t.command.id);
        const log::LogPosition lp{ts, dfp_lane()};
        log_.commit(lp, t.command);
        persist_committed(lp, /*is_noop=*/false, &t.command);
        execute_ready();
      }
      return;
    }
    if (t.rejects <= n - q) all_dead = false;  // this command can still win fast
  }
  if (!is_coordinator()) return;  // recovery is the coordinator's job
  if (all_dead) {
    // No proposal at this position can reach a supermajority any more; run
    // coordinated recovery.
    start_dfp_recovery(ts);
    return;
  }
  if (!pos.timer_armed) {
    pos.timer_armed = true;
    after(kRecoveryTimeout, [this, ts] {
      auto pit = dfp_positions_.find(ts);
      if (pit == dfp_positions_.end() || pit->second.resolved || pit->second.recovering) {
        return;
      }
      start_dfp_recovery(ts);
    });
  }
}

void Replica::start_dfp_recovery(std::int64_t ts) {
  DfpPosition& pos = dfp_positions_[ts];
  pos.recovering = true;
  if (const obs::SpanId s = open_wait_span("dfp_recovery"); s != 0) {
    dfp_recovery_spans_[ts] = s;
  }
  // Ballot-1 choice: the most-accepted proposal if it is still choosable,
  // else no-op. The choosability threshold is q - f accepts: below it, a
  // supermajority of replicas must have no-op'd the position, so learners
  // that derive the no-op frontier from watermarks (Section 5.7's
  // every-replica-learner mode) may already have learned the no-op — the
  // recovery must agree with them. A fast-learned command has accepts >= q
  // here too and resolves before recovery starts.
  DfpCommit choice;
  choice.ts = ts;
  const CommandTally* best = nullptr;
  for (const CommandTally& t : pos.tallies) {
    if (t.accepts == 0) continue;
    if (best == nullptr || t.accepts > best->accepts) best = &t;
  }
  const std::size_t choosable_threshold =
      measure::supermajority(replicas_.size()) - measure::fault_tolerance(replicas_.size());
  if (best != nullptr &&
      (!config_.all_replicas_learn || best->accepts >= choosable_threshold)) {
    choice.is_noop = false;
    choice.command = best->command;
  } else {
    choice.is_noop = true;
  }
  pos.recovery_choice = choice;
  pos.recovery_acks = 1;  // self

  // Self-accept at ballot 1.
  if (!choice.is_noop) {
    const log::LogPosition lp{ts, dfp_lane()};
    if (!log_.is_resolved(lp)) {
      log_.accept(lp, choice.command);
      persistor_.persist(recovery::RecordTag::kAccepted, [&] {
        return wire::to_bytes(AcceptedRecord{ts, dfp_lane(), choice.command});
      });
    }
  }
  broadcast(DfpRecoveryAccept{ts, choice.is_noop, choice.command});
}

void Replica::handle_dfp_recovery_reply(const wire::Payload& payload) {
  if (!is_coordinator()) return;
  const auto msg = wire::decode_message<DfpRecoveryReply>(payload);
  auto it = dfp_positions_.find(msg.ts);
  if (it == dfp_positions_.end() || it->second.resolved || !it->second.recovering) return;
  DfpPosition& pos = it->second;
  if (++pos.recovery_acks < measure::majority(replicas_.size())) return;
  const DfpCommit choice = *pos.recovery_choice;
  resolve_dfp(msg.ts, choice.is_noop, choice.command, /*was_fast=*/false);
}

void Replica::resolve_dfp(std::int64_t ts, bool is_noop, const sm::Command& command,
                          bool was_fast) {
  DfpPosition& pos = dfp_positions_[ts];
  pos.resolved = true;
  const auto rspan_it = dfp_recovery_spans_.find(ts);
  if (rspan_it != dfp_recovery_spans_.end()) {
    close_wait_span(rspan_it->second);
    dfp_recovery_spans_.erase(rspan_it);
  }

  const log::LogPosition lp{ts, dfp_lane()};
  if (!is_noop) {
    pos.winner = command.id;
    dfp_committed_.insert(command.id);
    log_.commit(lp, command);
    was_fast ? obs_dfp_fast_.inc() : obs_dfp_slow_.inc();
  } else {
    obs_dfp_noops_.inc();
    // Single-position resolution; see handle_dfp_commit for why the lane
    // watermark must not jump to ts + 1 here.
    log_.resolve_as_noop(lp);
  }
  // Losers captured by value: the tally may be garbage-collected while the
  // commit record syncs.
  std::vector<sm::Command> losers;
  for (const CommandTally& t : pos.tallies) {
    if (pos.winner && *pos.winner == t.command.id) continue;
    losers.push_back(t.command);
  }
  // Resolving makes the local commit frontier eligible to pass ts. Hold the
  // advertised frontier below it until the DfpCommit leaves: a heartbeat
  // overtaking the delayed broadcast would carry a frontier that lets a
  // rejecting replica (whose position is empty) no-op a committed command.
  if (!is_noop) watermark_holds_.insert(ts);
  // The DfpCommit broadcast and the client reply externalize the decision;
  // they wait for the commit record to be durable.
  persist_committed(
      lp, is_noop, is_noop ? nullptr : &command,
      [this, ts, is_noop, command, was_fast, losers = std::move(losers)] {
        if (!is_noop) release_watermark_hold(ts);
        broadcast(DfpCommit{ts, is_noop, is_noop ? sm::Command{} : command});
        if (!is_noop && !was_fast) send(command.id.client, DfpClientReply{command.id});
        // Every command that lost this position continues through DM
        // (Section 5.3.3: "The DFP coordinator will propose the other
        // request through Domino's Mencius").
        for (const sm::Command& loser : losers) reroute_via_dm(loser);
        execute_ready();
      });
}

void Replica::reroute_via_dm(const sm::Command& command) {
  if (dfp_committed_.contains(command.id)) return;  // already committed via DFP
  if (!rerouted_.insert(command.id)) return;        // already re-proposed
  obs_rerouted_.inc();
  dm_lead(command, /*reply_via_dfp=*/true);
}

std::int64_t Replica::computed_commit_frontier() const {
  // A no-op is chosen at an empty position p once a supermajority of
  // replicas has passed p, i.e. at least q watermarks exceed p — which
  // holds exactly for p below the (n - q + 1)-th smallest watermark.
  std::vector<Duration> wms;
  wms.reserve(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const TimePoint wm = r == rank_ ? advertised_watermark() : replica_watermarks_[r];
    wms.push_back(wm - TimePoint::epoch());
  }
  const std::size_t rank_needed =
      replicas_.size() - measure::supermajority(replicas_.size()) + 1;
  const Duration wq = kth_smallest(std::move(wms), rank_needed);
  std::int64_t frontier = wq.nanos();
  // Never advance past an unresolved proposal (its outcome is still open).
  for (const auto& [ts, pos] : dfp_positions_) {
    if (!pos.resolved && ts < frontier) {
      frontier = ts;
      break;
    }
    if (ts >= frontier) break;
  }
  // Nor past a resolution whose externalizing broadcast is still waiting on
  // the durable sync (see resolve_dfp): a watermark of exactly the held
  // timestamp keeps that position open at every learner.
  if (!watermark_holds_.empty()) {
    frontier = std::min(frontier, *watermark_holds_.begin());
  }
  return std::max(frontier, commit_frontier_);
}

// --------------------------------------------------------------------- DM

void Replica::handle_dm_propose(const net::Packet& packet) {
  if (catching_up()) return;  // not rejoined yet; the client's retry will land
  const auto msg = wire::decode_message<DmPropose>(packet.payload);
  dm_lead(msg.command, /*reply_via_dfp=*/false);
}

void Replica::dm_lead(const sm::Command& command, bool reply_via_dfp) {
  // Stamp the request with when replication to a majority should finish
  // (Section 5.5: "it assigns the request with a future time indicating
  // when it should have replicated the request to a majority").
  const Duration l = replication_latency_estimate();
  std::int64_t ts = (local_now() + l).nanos();
  ts = std::max({ts, dm_last_assigned_ + 1, local_now().nanos() + 1});
  dm_last_assigned_ = ts;

  const log::LogPosition pos{ts, static_cast<std::uint32_t>(rank_)};
  log_.accept(pos, command);
  watermark_holds_.insert(ts);  // released once the DmAccepts leave
  dm_pending_.emplace(ts, DmPending{1, command.id, reply_via_dfp});
  if (const obs::SpanId s = open_wait_span("dm_quorum_wait"); s != 0) {
    dm_quorum_spans_[ts] = s;
  }

  // The accept record doubles as the timestamp reservation: replay raises
  // dm_last_assigned_ past it, so a restarted leader can never re-assign a
  // position it already promised away.
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] {
        return wire::to_bytes(AcceptedRecord{ts, static_cast<std::uint32_t>(rank_), command,
                                             /*dm_leader=*/true, reply_via_dfp});
      },
      [this, ts, command] {
        release_watermark_hold(ts);
        broadcast(DmAccept{ts, static_cast<std::uint32_t>(rank_), command});
        maybe_commit_dm(ts);  // single-replica deployments commit immediately
      });
}

void Replica::handle_dm_accept(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<DmAccept>(payload);
  if (msg.lane >= replicas_.size()) return;
  const log::LogPosition pos{msg.ts, msg.lane};
  if (log_.is_resolved(pos) && !log_.is_committed(pos)) {
    // The position resolved as a no-op here (reachable only when a
    // restarted leader re-replicates an entry whose position was revoked
    // in the meantime); acking would let the leader commit a position this
    // replica will never execute.
    return;
  }
  log_.accept(pos, msg.command);
  // The ack counts toward the leader's majority, so the acceptance must be
  // durable before it leaves.
  persistor_.persist(
      recovery::RecordTag::kAccepted,
      [&] { return wire::to_bytes(AcceptedRecord{msg.ts, msg.lane, msg.command}); },
      [this, from, ts = msg.ts, lane = msg.lane] { send(from, DmAcceptReply{ts, lane}); });
}

void Replica::handle_dm_accept_reply(const wire::Payload& payload) {
  const auto msg = wire::decode_message<DmAcceptReply>(payload);
  if (msg.lane != rank_) return;
  auto it = dm_pending_.find(msg.ts);
  if (it == dm_pending_.end()) return;
  ++it->second.acks;
  maybe_commit_dm(msg.ts);
}

void Replica::maybe_commit_dm(std::int64_t ts) {
  auto it = dm_pending_.find(ts);
  if (it == dm_pending_.end()) return;
  if (it->second.acks < measure::majority(replicas_.size())) return;
  const DmPending pending = it->second;
  dm_pending_.erase(it);
  const auto span_it = dm_quorum_spans_.find(ts);
  if (span_it != dm_quorum_spans_.end()) {
    close_wait_span(span_it->second);
    dm_quorum_spans_.erase(span_it);
  }

  const log::LogPosition pos{ts, static_cast<std::uint32_t>(rank_)};
  log_.commit(pos);
  obs_dm_commits_.inc();
  // The client reply externalizes the commit; it waits for the decision to
  // be durable. The record carries no command — the leader's own kAccepted
  // record for this position always precedes it in the durable log.
  persist_committed(
      pos, /*is_noop=*/false, nullptr,
      [this, ts, pending] {
        broadcast(DmCommit{ts, static_cast<std::uint32_t>(rank_)});
        if (pending.reply_via_dfp) {
          send(pending.request.client, DfpClientReply{pending.request});
        } else {
          send(pending.request.client, DmClientReply{pending.request});
        }
        execute_ready();
      });
}

void Replica::handle_dm_commit(const wire::Payload& payload) {
  const auto msg = wire::decode_message<DmCommit>(payload);
  if (msg.lane >= replicas_.size()) return;
  const log::LogPosition pos{msg.ts, msg.lane};
  const auto* entry = log_.entry(pos);
  if (entry == nullptr) {
    // We never saw the accept (it was lost while we were crashed or
    // partitioned) and the commit carries no command, so there is nothing
    // to materialize. Ignore it: the position stays unresolved here and
    // this replica lags until the lane's revocation/watermark machinery
    // resolves the range — it must not bring the whole process down.
    return;
  }
  log_.commit(pos);
  // Nothing is externalized on this follower path; fire-and-forget. The
  // command rides in the record so replay does not depend on a local
  // kAccepted record (the entry may have arrived via catch-up instead).
  persist_committed(pos, /*is_noop=*/false, &entry->command);
  execute_ready();
}

// -------------------------------------------------- failure handling (5.8)

bool Replica::is_successor_for(std::size_t dead_rank) const {
  // The lowest-ranked live replica (other than the dead one) takes over.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i == dead_rank) continue;
    if (i == rank_) return true;
    if (!prober_.looks_failed(replicas_[i])) return false;
  }
  return false;
}

void Replica::maybe_run_failure_recovery() {
  // Connectivity guard: a replica that cannot see a majority of the cluster
  // (counting itself) is more likely the isolated one — freshly recovered
  // from a crash or cut off by a partition, its failure detector is stale
  // about *everyone*. Running recovery in that state would revoke healthy
  // lanes on the strength of a one-replica "quorum". Stand down until the
  // probe feed confirms a connected majority.
  std::size_t reachable = 1;  // self
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (r != rank_ && !prober_.looks_failed(replicas_[r])) ++reachable;
  }
  if (reachable < measure::majority(replicas_.size())) return;

  // A replica that died after an open round asked it has left the round's
  // wait-set without replying; no reply will ever trigger the finalize.
  for (std::uint32_t lane = 0; lane < log_.lane_count(); ++lane) try_finalize(lane);

  bool any_failed = false;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (r == rank_ || !prober_.looks_failed(replicas_[r])) continue;
    any_failed = true;
    // DM lane takeover: the successor revokes the dead leader's lane
    // ("DM will select one of the remaining replicas to manage the log
    // positions that are associated with the failed replica"), from where
    // its last revocation (or the lane watermark) stopped up to our clock.
    const auto lane = static_cast<std::uint32_t>(r);
    if (is_successor_for(r) && round_due(lane)) {
      const auto through = dm_revoked_through_.find(lane);
      start_round(lane,
                  through == dm_revoked_through_.end() ? log_.watermark(lane)
                                                       : through->second,
                  local_now().nanos());
    }
  }
  // DFP frontier recovery: the dead replica's frozen watermark would stall
  // the committed-no-op frontier forever; the coordinator recovers the
  // range with a ballot-1 round over the live replicas.
  if (any_failed && is_coordinator() && round_due(dfp_lane())) {
    start_dfp_round(commit_frontier_);
  }
}

bool Replica::round_due(std::uint32_t lane) {
  return !rounds_[lane].active && true_now() >= next_round_at_[lane];
}

void Replica::start_dfp_round(std::int64_t from_ts) {
  // Recover up to the slowest live watermark (live replicas have no-op'd
  // everything below their clocks; the dead one cannot object at ballot 1).
  Duration to = local_now() - TimePoint::epoch();
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (r == rank_ || prober_.looks_failed(replicas_[r])) continue;
    to = std::min(to, replica_watermarks_[r] - TimePoint::epoch());
  }
  start_round(dfp_lane(), from_ts, to.nanos());
}

void Replica::start_round(std::uint32_t lane, std::int64_t from_ts, std::int64_t to_ts) {
  next_round_at_[lane] = true_now() + kRecoveryRoundInterval;
  RecoveryRound& round = rounds_[lane];
  round = RecoveryRound{};
  if (to_ts <= from_ts) return;
  round.active = true;
  round.from = from_ts;
  round.to = to_ts;
  // Seed with our own live entries on the lane.
  for (const auto& e : log_.entries_in_range(lane, from_ts, to_ts)) {
    round.entries.emplace(e.ts, e.command);
  }
  const RangeRecover msg{lane, from_ts, to_ts};
  for (NodeId r : replicas_) {
    if (r != id() && !prober_.looks_failed(r)) send(r, msg);
  }
  try_finalize(lane);  // single-live-replica degenerate case
}

void Replica::handle_range_recover(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<RangeRecover>(payload);
  if (msg.lane >= log_.lane_count()) return;
  RangeReply reply{msg.lane, msg.from_ts, msg.to_ts, {}};
  for (const auto& e : log_.entries_in_range(msg.lane, msg.from_ts, msg.to_ts)) {
    reply.entries.push_back(RangeEntryWire{e.ts, e.command});
  }
  send(from, reply);
}

void Replica::handle_range_reply(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<RangeReply>(payload);
  auto it = rounds_.find(msg.lane);
  if (it == rounds_.end() || !it->second.active) return;
  RecoveryRound& round = it->second;
  if (msg.from_ts != round.from || msg.to_ts != round.to) return;  // stale round
  round.replied.insert(from);
  for (const auto& e : msg.entries) round.entries.emplace(e.ts, e.command);
  try_finalize(msg.lane);
}

void Replica::try_finalize(std::uint32_t lane) {
  auto it = rounds_.find(lane);
  if (it == rounds_.end() || !it->second.active) return;
  RecoveryRound& round = it->second;
  // Wait for every replica we believe is alive: querying all live replicas
  // (not just a majority) guarantees that an entry committed-and-compacted
  // at some replicas is still reported by any replica that merely accepted
  // it.
  std::size_t replied = 1;  // self
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (r == rank_ || prober_.looks_failed(replicas_[r])) continue;
    if (!round.replied.contains(replicas_[r])) return;
    ++replied;
  }
  // Never finalize on less than a majority of lane state: if the failure
  // detector degraded mid-round (e.g. we got partitioned while recovering),
  // the "all live replicas" wait-set above can shrink to just ourselves,
  // and a single-replica round could no-op entries the connected majority
  // has accepted. Keep the round open until probes recover.
  if (replied < measure::majority(replicas_.size())) return;
  round.active = false;
  RangeResolve resolve{lane, round.from, round.to, {}};
  for (const auto& [ts, cmd] : round.entries) {
    resolve.entries.push_back(RangeEntryWire{ts, cmd});
  }
  if (lane == dfp_lane()) {
    settle_dfp_positions(round.from, round.to, round.entries);
  } else {
    dm_revoked_through_[lane] = round.to;
  }
  broadcast(resolve);
  apply_range_resolve(resolve);
}

void Replica::settle_dfp_positions(std::int64_t from_ts, std::int64_t to_ts,
                                   const std::map<std::int64_t, sm::Command>& entries) {
  for (const auto& [ts, cmd] : entries) {
    if (dfp_committed_.insert(cmd.id)) {
      obs_dfp_slow_.inc();
      // The client may not have reached a supermajority on its own; tell it
      // (duplicate notifications are deduplicated client-side).
      send(cmd.id.client, DfpClientReply{cmd.id});
    }
  }
  // Settle the coordinator's per-position bookkeeping inside the range:
  // commands that did not make the committed list continue through DM.
  for (auto it = dfp_positions_.lower_bound(from_ts);
       it != dfp_positions_.end() && it->first <= to_ts;) {
    DfpPosition& pos = it->second;
    if (!pos.resolved) {
      pos.resolved = true;
      const auto winner = entries.find(it->first);
      if (winner != entries.end()) pos.winner = winner->second.id;
      for (const CommandTally& t : pos.tallies) {
        if (pos.winner && *pos.winner == t.command.id) continue;
        reroute_via_dm(t.command);
      }
    }
    it = dfp_positions_.erase(it);
  }
  commit_frontier_ = std::max(commit_frontier_, to_ts);
}

void Replica::apply_range_resolve(const RangeResolve& resolve) {
  if (resolve.lane >= log_.lane_count()) return;
  // No-op our accepted entries that the round did not commit.
  for (const auto& e :
       log_.entries_in_range(resolve.lane, resolve.from_ts, resolve.through_ts)) {
    if (e.committed) continue;
    const bool listed =
        std::any_of(resolve.entries.begin(), resolve.entries.end(),
                    [&](const RangeEntryWire& w) { return w.ts == e.ts; });
    if (!listed) {
      const log::LogPosition pos{e.ts, resolve.lane};
      log_.resolve_as_noop(pos);
      persist_committed(pos, /*is_noop=*/true, nullptr);
    }
  }
  for (const auto& e : resolve.entries) {
    const log::LogPosition pos{e.ts, resolve.lane};
    log_.commit(pos, e.command);
    persist_committed(pos, /*is_noop=*/false, &e.command);
  }
  log_.advance_watermark(resolve.lane, resolve.through_ts);
  execute_ready();
}

// ---------------------------------------------------------- crash recovery

void Replica::recover() {
  close_wait_spans(dm_quorum_spans_);
  close_wait_spans(dfp_recovery_spans_);
  log_ = log::GlobalLog(replicas_.size() + 1);
  dfp_positions_.clear();
  std::fill(replica_watermarks_.begin(), replica_watermarks_.end(), TimePoint::epoch());
  commit_frontier_ = 0;
  dfp_committed_.clear();
  dm_pending_.clear();
  // Pending syncs died with the crash (their continuations are epoch
  // guarded), so the matching releases will never run.
  watermark_holds_.clear();
  dm_last_assigned_ = 0;
  rerouted_.clear();
  rounds_.clear();
  next_round_at_.clear();
  dm_revoked_through_.clear();

  persistor_.replay([this](const recovery::DurableRecord& rec) {
    switch (rec.tag) {
      case recovery::RecordTag::kAccepted: {
        auto [ts, lane, cmd, dm_leader, reply_via_dfp] =
            wire::from_bytes<AcceptedRecord>(rec.body);
        if (lane >= log_.lane_count()) break;
        if (dm_leader && lane == rank_) {
          // Reservation: never assign at or below a promised timestamp
          // again, even though the ack counts died with the crash.
          dm_last_assigned_ = std::max(dm_last_assigned_, ts);
          dm_pending_.emplace(ts, DmPending{1, cmd.id, reply_via_dfp});
        }
        // A later kCommitted/no-op record of the same position wins; the
        // log ignores a (same-command) re-accept of a resolved entry.
        log_.accept(log::LogPosition{ts, lane}, std::move(cmd));
        break;
      }
      case recovery::RecordTag::kCommitted: {
        auto [ts, lane, is_noop, cmd] = wire::from_bytes<CommittedRecord>(rec.body);
        if (lane >= log_.lane_count()) break;
        const log::LogPosition pos{ts, lane};
        if (is_noop) {
          if (!log_.is_committed(pos)) log_.resolve_as_noop(pos);
          log_.advance_watermark(lane, ts + 1);
          if (lane == dfp_lane()) dfp_positions_[ts].resolved = true;
          break;
        }
        learn_committed(pos, std::move(cmd));
        break;
      }
      default:
        break;  // Domino writes no other tags
    }
  });
  execute_ready();

  // Accepted-but-uncommitted own-lane entries lost their ack counts with
  // the crash; re-replicate them (same position, same command — followers
  // that already accepted simply re-ack) so the lane frontier cannot stall
  // behind them.
  std::vector<std::int64_t> pending_ts;
  pending_ts.reserve(dm_pending_.size());
  for (const auto& [ts, pending] : dm_pending_) {
    (void)pending;
    pending_ts.push_back(ts);
  }
  std::sort(pending_ts.begin(), pending_ts.end());
  for (const std::int64_t ts : pending_ts) {
    const auto* e = log_.entry(log::LogPosition{ts, static_cast<std::uint32_t>(rank_)});
    if (e == nullptr || e->status != log::GlobalLog::Status::kAccepted) {
      dm_pending_.erase(ts);  // resolved by a replayed record after all
      continue;
    }
    if (const obs::SpanId s = open_wait_span("dm_quorum_wait"); s != 0) {
      dm_quorum_spans_[ts] = s;
    }
    broadcast(DmAccept{ts, static_cast<std::uint32_t>(rank_), e->command});
    maybe_commit_dm(ts);  // single-replica deployments commit immediately
  }

  // A restarted coordinator lost the tallies of every unresolved DFP
  // position, so nothing would ever resolve the acceptors' stuck entries
  // there. Schedule one range-recovery round over the live replicas; the
  // delay lets probes and heartbeats refresh the liveness/watermark views
  // it relies on. It starts from 0 rather than commit_frontier_: with the
  // tallies gone the frontier no longer caps at stuck positions, so it may
  // already have advanced past them (compacted history keeps the round
  // cheap). Durable ballot-0 accepts make the round safe: every live
  // replica reports its accepted entries and each reported entry is
  // committed, so a client-observed fast commit cannot be no-op'd.
  if (is_coordinator()) {
    after(kRecoveryTimeout, [this, epoch = persistor_.epoch()] {
      if (epoch != persistor_.epoch() || rounds_[dfp_lane()].active) return;
      start_dfp_round(0);
    });
  }
}

void Replica::fill_catchup(recovery::CatchupReply& reply) const {
  const log::LogPosition frontier = log_.global_frontier();
  reply.frontier = frontier.ts;
  reply.frontier_lane = frontier.lane;
  // Per-lane committed-no-op watermarks: they cover the empty positions a
  // requester cannot otherwise resolve (e.g. a revoked lane whose leader is
  // still down and so sends no clock heartbeats).
  reply.watermarks.reserve(log_.lane_count());
  for (std::uint32_t lane = 0; lane < log_.lane_count(); ++lane) {
    reply.watermarks.push_back(log_.watermark(lane));
  }
  for (auto& e : log_.resolved_unexecuted()) {
    reply.entries.push_back(recovery::CatchupEntry{e.pos.ts, e.pos.lane, std::move(e.command),
                                                   wire::to_bytes(e.is_noop)});
  }
}

void Replica::merge_catchup(const recovery::CatchupReply& msg, std::size_t bytes) {
  const log::LogPosition peer_frontier{msg.frontier, msg.frontier_lane};
  if (log_.global_frontier() < peer_frontier) {
    install_snapshot(msg, bytes);
    log_.fast_forward(peer_frontier);
  }
  const auto lanes =
      static_cast<std::uint32_t>(std::min<std::size_t>(msg.watermarks.size(),
                                                       log_.lane_count()));
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    log_.advance_watermark(lane, msg.watermarks[lane]);
  }
  for (const auto& e : msg.entries) {
    if (e.lane >= log_.lane_count()) continue;
    const log::LogPosition pos{e.pos, e.lane};
    if (!e.aux.empty() && wire::from_bytes<bool>(e.aux)) {  // no-op
      if (!log_.is_committed(pos)) log_.resolve_as_noop(pos);
      continue;
    }
    learn_committed(pos, e.command);
  }
  execute_ready();
}

// ------------------------------------------------------------------ shared

void Replica::handle_heartbeat(NodeId from, const wire::Payload& payload) {
  const auto msg = wire::decode_message<Heartbeat>(payload);
  const std::size_t from_rank = rank_of(from);
  if (from_rank >= replicas_.size()) return;
  note_replica_watermark(from_rank, msg.sender_local_time);
  // The sender's clock watermark no-ops the empty positions of its DM lane.
  log_.advance_watermark(static_cast<std::uint32_t>(from_rank),
                         msg.sender_local_time.nanos());
  if (from == coordinator_ && msg.dfp_commit_frontier > 0) {
    log_.advance_watermark(dfp_lane(), msg.dfp_commit_frontier);
  }
  execute_ready();
}

void Replica::broadcast_heartbeat() {
  maybe_run_failure_recovery();
  // Our own DM lane: empty positions below our clock are no-ops. The
  // advertised value stops short of any acceptance still waiting on its
  // durable sync, so the heartbeat cannot overtake the delayed notice.
  const TimePoint advertised = advertised_watermark();
  log_.advance_watermark(static_cast<std::uint32_t>(rank_), advertised.nanos());

  Heartbeat msg;
  msg.sender_local_time = advertised;
  if (is_coordinator() || config_.all_replicas_learn) {
    // Advance the committed-no-op frontier from directly received
    // watermarks. In every-replica-learner mode each replica computes this
    // locally (Section 5.7); otherwise only the coordinator does, and
    // followers learn it from the heartbeat field below.
    commit_frontier_ = computed_commit_frontier();
    log_.advance_watermark(dfp_lane(), commit_frontier_);
    if (is_coordinator()) msg.dfp_commit_frontier = commit_frontier_;
    // Garbage-collect resolved positions behind the frontier.
    for (auto it = dfp_positions_.begin();
         it != dfp_positions_.end() && it->first < commit_frontier_;) {
      it = it->second.resolved ? dfp_positions_.erase(it) : std::next(it);
    }
  }
  broadcast(msg);
  execute_ready();
}

void Replica::execute_ready() {
  for (auto& [pos, command] : log_.drain_executable()) {
    execute(command);
  }
}

void Replica::persist_committed(log::LogPosition pos, bool is_noop, const sm::Command* command,
                                std::function<void()> then) {
  persistor_.persist(
      recovery::RecordTag::kCommitted,
      [&] {
        return wire::to_bytes(CommittedRecord{
            pos.ts, pos.lane, is_noop, command ? std::optional(*command) : std::nullopt});
      },
      std::move(then));
}

void Replica::learn_committed(log::LogPosition pos, std::optional<sm::Command> command) {
  const auto* local = log_.entry(pos);
  if (local != nullptr && local->status == log::GlobalLog::Status::kAbortedNoop) return;
  if (!command && local == nullptr) return;  // nothing to commit; catch-up covers it
  const RequestId rid = command ? command->id : local->command.id;
  log_.commit(pos, std::move(command));
  if (pos.lane == dfp_lane()) {
    dfp_committed_.insert(rid);
    // Keep the position marked resolved so a late notice for it reroutes
    // instead of re-opening a decided position.
    DfpPosition& p = dfp_positions_[pos.ts];
    p.resolved = true;
    p.winner = rid;
  } else if (pos.lane == rank_) {
    // Committed on our lane without our own majority (replayed, or revoked
    // while we were down): nothing left to replicate.
    dm_pending_.erase(pos.ts);
    const auto span_it = dm_quorum_spans_.find(pos.ts);
    if (span_it != dm_quorum_spans_.end()) {
      close_wait_span(span_it->second);
      dm_quorum_spans_.erase(span_it);
    }
  }
}

}  // namespace domino::core

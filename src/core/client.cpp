#include "core/client.h"

#include <algorithm>

namespace domino::core {

Client::Client(NodeId id, std::size_t dc, rpc::Context& context,
               std::vector<NodeId> replicas, ClientConfig config, sim::LocalClock clock)
    : rpc::ClientBase(id, dc, context, clock),
      replicas_(std::move(replicas)),
      config_(config),
      prober_(*this, replicas_, config.prober),
      proxy_feed_(*this) {
  init_obs();
}

void Client::init_obs() {
  const obs::Sink& sink = obs_sink();
  obs_dfp_chosen_ = sink.counter("domino.client.dfp_chosen");
  obs_dm_chosen_ = sink.counter("domino.client.dm_chosen");
  obs_fast_learns_ = sink.counter("domino.client.fast_learns");
  obs_slow_replies_ = sink.counter("domino.client.slow_replies");
  obs_failovers_ = sink.counter("domino.client.failovers");
}

void Client::start() {
  if (config_.proxy.valid()) {
    // Section 5.6: poll the co-located proxy instead of probing everyone.
    proxy_timer_.start(context(), Duration::zero(), config_.prober.probe_interval,
                       [this] { send(config_.proxy, measure::ProxyQuery{}); });
  } else {
    prober_.start();
  }
}

const measure::LatencyView& Client::view() const {
  if (config_.proxy.valid()) return proxy_feed_;
  return prober_;
}

Client::Estimates Client::estimates() const {
  Estimates e;
  e.dfp = measure::estimate_dfp_latency(view(), replicas_);
  const auto dm = measure::estimate_dm_latency(view(), replicas_);
  e.dm = dm.latency;
  e.dm_leader = dm.leader;
  return e;
}

double Client::recent_fast_rate() const {
  if (outcomes_.empty()) return 1.0;
  std::size_t fast = 0;
  for (bool b : outcomes_) fast += b ? 1 : 0;
  return static_cast<double>(fast) / static_cast<double>(outcomes_.size());
}

void Client::record_dfp_outcome(bool fast) {
  if (!config_.adaptive) return;
  if (outcomes_.size() < kAdaptiveWindow) {
    outcomes_.push_back(fast);
  } else {
    outcomes_[outcome_cursor_] = fast;
    outcome_cursor_ = (outcome_cursor_ + 1) % kAdaptiveWindow;
  }
  // Grow the slack while the fast path struggles; decay it when healthy.
  if (!fast) {
    adaptive_extra_ = std::min(adaptive_extra_ + kAdaptiveStep, kAdaptiveMaxExtra);
  } else if (recent_fast_rate() >= kAdaptiveTarget && adaptive_extra_ > Duration::zero()) {
    adaptive_extra_ -= Duration{kAdaptiveStep.nanos() / 4};
    if (adaptive_extra_ < Duration::zero()) adaptive_extra_ = Duration::zero();
  }
}

void Client::propose(const sm::Command& command) {
  const Estimates est = estimates();
  bool use_dfp = false;
  bool adaptive_override = false;
  switch (config_.mode) {
    case ClientConfig::Mode::kDfpOnly:
      use_dfp = true;
      break;
    case ClientConfig::Mode::kDmOnly:
      use_dfp = false;
      break;
    case ClientConfig::Mode::kAuto:
      use_dfp = est.dfp <= est.dm;
      // Feedback override: an extended run of slow-path commits means the
      // arrival predictions are off; fall back to DM until the (slack-
      // assisted) fast path recovers (Section 5.4).
      if (config_.adaptive && use_dfp && outcomes_.size() >= kAdaptiveWindow / 2 &&
          recent_fast_rate() < 0.5) {
        use_dfp = false;
        adaptive_override = true;
      }
      break;
  }
  if (obs::PredictionAudit* a = audit()) {
    // Capture what was predicted at the choice point; the commit path
    // reconciles it into error / oracle-regret records (obs/predict.h).
    obs::DecisionRecord d;
    d.request = command.id;
    d.client = id();
    d.decided_at = true_now();
    d.mode = config_.mode == ClientConfig::Mode::kAuto ? obs::DecisionMode::kAuto
             : config_.mode == ClientConfig::Mode::kDfpOnly
                 ? obs::DecisionMode::kDfpForced
                 : obs::DecisionMode::kDmForced;
    d.predicted_dfp = est.dfp;
    d.predicted_dm = est.dm;
    d.dm_leader = est.dm_leader;
    d.adaptive_override = adaptive_override;
    d.recent_fast_rate = recent_fast_rate();
    a->open(d);
  }
  if (use_dfp && est.dfp != Duration::max()) {
    obs_dfp_chosen_.inc();
    propose_dfp(command);
    return;
  }
  obs_dm_chosen_.inc();
  propose_dm(command, est.dm_leader.valid() ? est.dm_leader : fallback_dm_leader());
}

NodeId Client::fallback_dm_leader() const {
  for (NodeId r : replicas_) {
    if (!view().is_stale(r)) return r;
  }
  return replicas_.front();
}

void Client::on_request_timeout(const sm::Command& command, std::size_t /*attempt*/) {
  if (obs::PredictionAudit* a = audit()) a->note_failover(command.id);
  // Forget the DFP attempt (any quorum it was gathering is moot; the DFP
  // timestamp of the retry will differ, so late notices are ignored).
  if (const auto it = dfp_pending_.find(command.id); it != dfp_pending_.end()) {
    close_wait("dfp_attempt", command.id);
    dfp_pending_.erase(it);
    obs_failovers_.inc();
  }
  // Re-route through DM: the estimator skips stale leaders, so a crashed
  // replica's lane is avoided once its probe feed goes quiet.
  const auto dm = measure::estimate_dm_latency(view(), replicas_);
  obs_dm_chosen_.inc();
  propose_dm(command, dm.leader.valid() ? dm.leader : fallback_dm_leader());
}

void Client::propose_dfp(const sm::Command& command) {
  const TimePoint now_local = local_now();
  const TimePoint predicted = measure::dfp_request_timestamp(
      view(), now_local, replicas_, config_.additional_delay);
  if (predicted == TimePoint::max()) {
    // No usable arrival predictions; fall back to DM.
    if (obs::PredictionAudit* a = audit()) {
      a->note_dm(command.id, NodeId::invalid(), /*unpredictable=*/true);
    }
    propose_dm(command, fallback_dm_leader());
    return;
  }
  // Timestamps double as log positions, so they must be unique per client
  // (Section 5.3.3); bump past our previous proposal when needed. The
  // adaptive controller's slack is added on top of the configured one.
  std::int64_t ts = std::max((predicted + adaptive_extra_).nanos(), last_dfp_ts_ + 1);
  if (config_.timestamp_shard_space > 0) {
    // Pre-sharded timestamps (Section 5.3.3): the low digits carry the
    // client id, so distinct clients can never collide on a position.
    const auto space = static_cast<std::int64_t>(config_.timestamp_shard_space);
    const auto shard = static_cast<std::int64_t>(id().value()) % space;
    ts = ts - (ts % space) + shard;
    while (ts <= last_dfp_ts_) ts += space;
  }
  last_dfp_ts_ = ts;
  if (obs::PredictionAudit* a = audit()) {
    // Record the stamped deadline and each replica's predicted arrival
    // offset, so acceptance notices can be reconciled into per-replica
    // overshoot and blame.
    std::vector<Duration> offsets;
    offsets.reserve(replicas_.size());
    for (NodeId r : replicas_) offsets.push_back(view().owd_estimate(r));
    a->note_dfp(command.id, ts, now_local, config_.additional_delay, adaptive_extra_,
                replicas_, offsets);
  }
  open_wait("dfp_attempt", command.id);
  dfp_pending_[command.id] = DfpPendingState{ts, 0};
  DfpPropose msg{ts, command};
  for (NodeId r : replicas_) send(r, msg);
}

void Client::propose_dm(const sm::Command& command, NodeId leader) {
  if (obs::PredictionAudit* a = audit()) {
    a->note_dm(command.id, leader, /*unpredictable=*/false);
  }
  send(leader, DmPropose{command});
}

void Client::on_committed(const RequestId& id, TimePoint sent_at, TimePoint committed_at) {
  if (obs::PredictionAudit* a = audit()) {
    a->reconcile(id, committed_at, committed_at - sent_at);
  }
}

void Client::on_packet(const net::Packet& packet) {
  dispatch<measure::ProbeReply, measure::ProxyReport, DfpAcceptNotice, DfpClientReply,
           DmClientReply>(
      packet, [this](const net::Packet& p, const auto& msg) { handle(p, msg); });
}

void Client::handle(const net::Packet& packet, const DfpAcceptNotice& notice) {
  if (notice.command.id.client != id()) return;
  if (obs::PredictionAudit* a = audit()) {
    // Rejections matter too: they carry the realized arrival that blew the
    // deadline (the audit validates ts against the live attempt).
    a->note_arrival(notice.command.id, packet.src, notice.ts, notice.sender_local_time,
                    notice.accepted);
  }
  auto it = dfp_pending_.find(notice.command.id);
  if (it == dfp_pending_.end() || it->second.ts != notice.ts) return;
  if (!notice.accepted) return;  // rejected: wait for the coordinator's slow path
  if (++it->second.accepts >= measure::supermajority(replicas_.size())) {
    close_wait("dfp_attempt", notice.command.id);
    dfp_pending_.erase(it);
    obs_fast_learns_.inc();
    record_dfp_outcome(true);
    if (obs::PredictionAudit* a = audit()) {
      a->note_outcome(notice.command.id, obs::DecisionOutcome::kFastPath);
    }
    handle_committed(notice.command.id);
  }
}

void Client::handle(const net::Packet&, const DfpClientReply& reply) {
  if (const auto it = dfp_pending_.find(reply.request); it != dfp_pending_.end()) {
    close_wait("dfp_attempt", reply.request);
    dfp_pending_.erase(it);
    record_dfp_outcome(false);
  }
  obs_slow_replies_.inc();
  if (obs::PredictionAudit* a = audit()) {
    a->note_outcome(reply.request, obs::DecisionOutcome::kSlowPath);
  }
  handle_committed(reply.request);
}

void Client::handle(const net::Packet&, const DmClientReply& reply) {
  if (obs::PredictionAudit* a = audit()) {
    a->note_outcome(reply.request, obs::DecisionOutcome::kDmCommit);
  }
  handle_committed(reply.request);
}

}  // namespace domino::core

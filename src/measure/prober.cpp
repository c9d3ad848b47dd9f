#include "measure/prober.h"

namespace domino::measure {

Prober::Prober(rpc::Node& owner, std::vector<NodeId> targets, ProberConfig config)
    : owner_(owner),
      targets_(std::move(targets)),
      config_(config),
      calibration_(owner.id(), targets_) {
  obs_probes_sent_ = owner_.obs_sink().counter("measure.probes_sent");
  obs_probe_replies_ = owner_.obs_sink().counter("measure.probe_replies");
  obs_calib_margin_ = owner_.obs_sink().histogram("calib.owd_margin_ns");
  obs_calib_overshoot_ = owner_.obs_sink().histogram("calib.owd_overshoot_ns");
  for (NodeId t : targets_) {
    auto [it, inserted] = state_.emplace(t, TargetState{config_.window});
    if (!inserted || t == owner_.id()) continue;
    // Per-series coverage counters, named like the per-link net metrics.
    const std::string series = owner_.id().to_string() + "->" + t.to_string();
    it->second.obs_calib_samples =
        owner_.obs_sink().counter("calib." + series + ".samples");
    it->second.obs_calib_covered =
        owner_.obs_sink().counter("calib." + series + ".covered");
  }
}

void Prober::start() {
  started_ = owner_.true_now();
  ever_started_ = true;
  timer_.start(owner_.context(), Duration::zero(), config_.probe_interval,
               [this] { send_probes(); });
}

void Prober::stop() { timer_.stop(); }

void Prober::send_probes() {
  const std::uint64_t seq = next_seq_++;
  for (NodeId t : targets_) {
    if (t == owner_.id()) continue;
    Probe p;
    p.seq = seq;
    p.sender_local_time = owner_.local_now();
    owner_.send(t, p);
    ++probes_sent_;
    obs_probes_sent_.inc();
  }
}

void Prober::on_probe_reply(NodeId from, const ProbeReply& reply) {
  auto it = state_.find(from);
  if (it == state_.end()) return;
  TargetState& ts = it->second;
  const TimePoint local_now = owner_.local_now();
  const Duration realized_owd = reply.replica_local_time - reply.echo_sender_local_time;
  // Calibration: score the realized arrival offset against the percentile
  // prediction the window held *before* this sample is folded in — exactly
  // the prediction a DFP timestamp stamped "now" would have used.
  if (const auto predicted = ts.owd.percentile(local_now, config_.percentile)) {
    calibration_.record(from, *predicted, realized_owd);
    const std::int64_t margin = (*predicted - realized_owd).nanos();
    ts.obs_calib_samples.inc();
    if (margin >= 0) {
      ts.obs_calib_covered.inc();
      obs_calib_margin_.record(margin);
    } else {
      obs_calib_overshoot_.record(-margin);
    }
  }
  ts.rtt.add(local_now, local_now - reply.echo_sender_local_time);
  ts.owd.add(local_now, realized_owd);
  ts.replication_latency = reply.replication_latency;
  ts.last_reply_true_time = owner_.true_now();
  ts.ever_replied = true;
  obs_probe_replies_.inc();
}

ProbeReply Prober::make_reply(const Probe& probe, TimePoint replica_local_now,
                              Duration replication_latency) {
  ProbeReply r;
  r.seq = probe.seq;
  r.echo_sender_local_time = probe.sender_local_time;
  r.replica_local_time = replica_local_now;
  r.replication_latency = replication_latency;
  return r;
}

bool Prober::looks_failed(NodeId target) const {
  auto it = state_.find(target);
  if (it == state_.end()) return true;
  const TargetState& ts = it->second;
  if (!ts.ever_replied) {
    // A target that has never answered only counts as failed once probing
    // has been running long enough for a reply to be overdue.
    return ever_started_ && owner_.true_now() - started_ > config_.failure_timeout;
  }
  return owner_.true_now() - ts.last_reply_true_time > config_.failure_timeout;
}

bool Prober::is_stale(NodeId target) const {
  if (target == owner_.id()) return false;
  auto it = state_.find(target);
  if (it == state_.end()) return true;
  const Duration stale_after =
      config_.probe_interval * static_cast<std::int64_t>(config_.stale_after_intervals);
  const TargetState& ts = it->second;
  if (!ts.ever_replied) {
    return ever_started_ && owner_.true_now() - started_ > stale_after;
  }
  return owner_.true_now() - ts.last_reply_true_time > stale_after;
}

Duration Prober::rtt_estimate(NodeId target, double percentile) const {
  if (target == owner_.id()) return Duration::zero();
  auto it = state_.find(target);
  if (it == state_.end() || looks_failed(target)) return Duration::max();
  const auto v = it->second.rtt.percentile(owner_.local_now(), percentile);
  return v ? *v : Duration::max();
}

Duration Prober::owd_estimate(NodeId target, double percentile) const {
  if (target == owner_.id()) return Duration::zero();
  auto it = state_.find(target);
  if (it == state_.end() || looks_failed(target)) return Duration::max();
  const auto v = it->second.owd.percentile(owner_.local_now(), percentile);
  return v ? *v : Duration::max();
}

Duration Prober::replication_latency_of(NodeId target) const {
  auto it = state_.find(target);
  if (it == state_.end()) return Duration::max();
  return it->second.replication_latency;
}

}  // namespace domino::measure

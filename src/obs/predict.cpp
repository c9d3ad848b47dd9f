#include "obs/predict.h"

#include <algorithm>

#include "obs/json.h"

namespace domino::obs {

const char* to_string(DecisionPath p) {
  switch (p) {
    case DecisionPath::kDfp: return "dfp";
    case DecisionPath::kDm: return "dm";
  }
  return "?";
}

const char* to_string(DecisionMode m) {
  switch (m) {
    case DecisionMode::kAuto: return "auto";
    case DecisionMode::kDfpForced: return "dfp_forced";
    case DecisionMode::kDmForced: return "dm_forced";
  }
  return "?";
}

const char* to_string(DecisionOutcome o) {
  switch (o) {
    case DecisionOutcome::kPending: return "pending";
    case DecisionOutcome::kFastPath: return "fast_path";
    case DecisionOutcome::kSlowPath: return "slow_path";
    case DecisionOutcome::kDmCommit: return "dm_commit";
  }
  return "?";
}

void PredictionAudit::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  obs_decisions_ = CounterHandle{&registry->counter("predict.decisions")};
  obs_reconciled_ = CounterHandle{&registry->counter("predict.reconciled")};
  obs_dropped_ = CounterHandle{&registry->counter("predict.dropped")};
  obs_failovers_ = CounterHandle{&registry->counter("predict.failovers")};
  obs_adaptive_overrides_ =
      CounterHandle{&registry->counter("predict.adaptive_overrides")};
  obs_blamed_ = CounterHandle{&registry->counter("predict.blamed_replicas")};
  obs_error_over_ = HistogramHandle{&registry->histogram("predict.error_over_ns")};
  obs_error_under_ = HistogramHandle{&registry->histogram("predict.error_under_ns")};
  obs_regret_over_ = HistogramHandle{&registry->histogram("predict.regret_over_ns")};
  obs_regret_under_ = HistogramHandle{&registry->histogram("predict.regret_under_ns")};
  obs_arrival_overshoot_ =
      HistogramHandle{&registry->histogram("predict.arrival_overshoot_ns")};
  obs_arrival_slack_ = HistogramHandle{&registry->histogram("predict.arrival_slack_ns")};
  obs_deadline_miss_ = HistogramHandle{&registry->histogram("predict.deadline_miss_ns")};
}

DecisionRecord* PredictionAudit::find_pending(const RequestId& id) {
  const auto it = pending_.find(id);
  return it == pending_.end() ? nullptr : &it->second;
}

void PredictionAudit::open(const DecisionRecord& decision) {
  if (pending_.size() + records_.size() >= capacity_) {
    obs_dropped_.inc();
    return;
  }
  if (pending_.contains(decision.request)) return;  // exactly one per command
  obs_decisions_.inc();
  pending_.emplace(decision.request, decision);
}

void PredictionAudit::note_dfp(const RequestId& id, std::int64_t deadline_ts,
                               TimePoint proposed_local, Duration additional_delay,
                               Duration adaptive_extra,
                               const std::vector<NodeId>& replicas,
                               const std::vector<Duration>& predicted_offsets) {
  DecisionRecord* r = find_pending(id);
  if (r == nullptr) return;
  r->chosen = DecisionPath::kDfp;
  r->deadline_ts = deadline_ts;
  r->proposed_local = proposed_local;
  r->additional_delay = additional_delay;
  r->adaptive_extra = adaptive_extra;
  // Pre-size the arrival table with the predicted offsets; realized sides
  // are filled per notice in note_arrival.
  r->arrivals.clear();
  r->arrivals.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size() && i < predicted_offsets.size(); ++i) {
    ReplicaArrival a;
    a.replica = replicas[i];
    a.predicted_offset = predicted_offsets[i];
    r->arrivals.push_back(a);
  }
}

void PredictionAudit::note_dm(const RequestId& id, NodeId leader, bool unpredictable) {
  DecisionRecord* r = find_pending(id);
  if (r == nullptr) return;
  r->chosen = DecisionPath::kDm;
  r->dm_leader = leader;
  if (unpredictable) r->dfp_unpredictable = true;
}

void PredictionAudit::note_failover(const RequestId& id) {
  DecisionRecord* r = find_pending(id);
  if (r == nullptr) return;
  r->failover = true;
}

void PredictionAudit::note_arrival(const RequestId& id, NodeId replica, std::int64_t ts,
                                   TimePoint replica_local_time, bool accepted) {
  DecisionRecord* r = find_pending(id);
  if (r == nullptr) return;
  if (r->chosen != DecisionPath::kDfp || r->deadline_ts != ts) return;
  for (ReplicaArrival& a : r->arrivals) {
    if (a.replica != replica) continue;
    if (a.heard) return;  // duplicate notice (retransmission); keep the first
    a.realized_offset = replica_local_time - r->proposed_local;
    a.lateness = Duration{replica_local_time.nanos() - ts};
    a.accepted = accepted;
    a.heard = true;
    return;
  }
}

void PredictionAudit::note_outcome(const RequestId& id, DecisionOutcome outcome) {
  DecisionRecord* r = find_pending(id);
  if (r == nullptr) return;
  r->outcome = outcome;
}

void PredictionAudit::reconcile(const RequestId& id, TimePoint committed_at,
                                Duration realized) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  DecisionRecord r = std::move(it->second);
  pending_.erase(it);

  r.committed_at = committed_at;
  r.realized = realized;
  if (r.outcome == DecisionOutcome::kPending) {
    // Commit learned without a path-specific notice (should not happen for
    // Domino, but keep the record honest rather than guessing).
    r.outcome = r.chosen == DecisionPath::kDfp ? DecisionOutcome::kSlowPath
                                               : DecisionOutcome::kDmCommit;
  }

  const Duration chosen_est =
      r.chosen == DecisionPath::kDfp ? r.predicted_dfp : r.predicted_dm;
  if (chosen_est != Duration::max()) {
    r.error_ns = realized.nanos() - chosen_est.nanos();
    r.error_valid = true;
    ++error_samples_;
    error_abs_sum_ns_ += r.error_ns < 0 ? -r.error_ns : r.error_ns;
    if (r.error_ns >= 0) {
      obs_error_over_.record(r.error_ns);
    } else {
      obs_error_under_.record(-r.error_ns);
    }
  }

  Duration best = Duration::max();
  if (r.predicted_dfp != Duration::max()) best = r.predicted_dfp;
  if (r.predicted_dm != Duration::max() && r.predicted_dm < best) best = r.predicted_dm;
  if (best != Duration::max()) {
    r.hindsight_best_ns = best.nanos();
    r.regret_ns = realized.nanos() - best.nanos();
    r.regret_valid = true;
    ++regret_samples_;
    regret_sum_ns_ += r.regret_ns;
    if (regret_samples_ == 1 || r.regret_ns > regret_max_ns_) regret_max_ns_ = r.regret_ns;
    if (r.regret_ns >= 0) {
      obs_regret_over_.record(r.regret_ns);
    } else {
      obs_regret_under_.record(-r.regret_ns);
    }
  }

  // Arrival calibration + misprediction attribution: blame the rejecting
  // replica whose realized arrival overshot its predicted offset the most.
  std::int64_t worst_overshoot = 0;
  for (const ReplicaArrival& a : r.arrivals) {
    if (!a.heard) continue;
    if (a.predicted_offset != Duration::max()) {
      const std::int64_t overshoot =
          a.realized_offset.nanos() - a.predicted_offset.nanos();
      if (overshoot > 0) {
        obs_arrival_overshoot_.record(overshoot);
      } else {
        obs_arrival_slack_.record(-overshoot);
      }
      if (!a.accepted && a.lateness > Duration::zero()) {
        obs_deadline_miss_.record(a.lateness);
        if (r.outcome == DecisionOutcome::kSlowPath && overshoot > worst_overshoot) {
          worst_overshoot = overshoot;
          r.blamed = a.replica;
          r.blamed_overshoot_ns = overshoot;
        }
      }
    }
  }
  if (r.blamed.valid()) obs_blamed_.inc();

  switch (r.outcome) {
    case DecisionOutcome::kFastPath: ++fast_path_; break;
    case DecisionOutcome::kSlowPath: ++slow_path_; break;
    case DecisionOutcome::kDmCommit: ++dm_commits_; break;
    case DecisionOutcome::kPending: break;  // unreachable
  }
  if (r.failover) obs_failovers_.inc();
  if (r.adaptive_override) obs_adaptive_overrides_.inc();
  obs_reconciled_.inc();
  records_.push_back(std::move(r));
}

std::string decisions_to_csv(const std::vector<DecisionRecord>& records,
                             std::string_view protocol) {
  std::string out =
      "protocol,request,mode,chosen,outcome,failover,adaptive_override,"
      "dfp_unpredictable,decided_ns,committed_ns,realized_ns,"
      "predicted_dfp_ns,predicted_dm_ns,dm_leader,deadline_ts,"
      "additional_delay_ns,adaptive_extra_ns,recent_fast_rate,"
      "error_ns,error_valid,regret_ns,hindsight_best_ns,regret_valid,"
      "arrivals_heard,arrivals_accepted,blamed,blamed_overshoot_ns\n";
  const std::string proto(protocol);
  for (const DecisionRecord& r : records) {
    std::size_t heard_count = 0;
    std::size_t accepted_count = 0;
    for (const ReplicaArrival& a : r.arrivals) {
      if (!a.heard) continue;
      ++heard_count;
      if (a.accepted) ++accepted_count;
    }
    // max() estimates export as -1: "no usable estimate".
    const auto est = [](Duration d) {
      return static_cast<long long>(d == Duration::max() ? -1 : d.nanos());
    };
    appendf(out,
            "%s,%s,%s,%s,%s,%d,%d,%d,%lld,%lld,%lld,%lld,%lld,%s,%lld,%lld,%lld,"
            "%.6f,%lld,%d,%lld,%lld,%d,%zu,%zu,%s,%lld\n",
            proto.c_str(), r.request.to_string().c_str(), to_string(r.mode),
            to_string(r.chosen), to_string(r.outcome), r.failover ? 1 : 0,
            r.adaptive_override ? 1 : 0, r.dfp_unpredictable ? 1 : 0,
            static_cast<long long>(r.decided_at.nanos()),
            static_cast<long long>(r.committed_at.nanos()),
            static_cast<long long>(r.realized == Duration::max() ? -1 : r.realized.nanos()),
            est(r.predicted_dfp), est(r.predicted_dm),
            node_str(r.dm_leader).c_str(), static_cast<long long>(r.deadline_ts),
            static_cast<long long>(r.additional_delay.nanos()),
            static_cast<long long>(r.adaptive_extra.nanos()), r.recent_fast_rate,
            static_cast<long long>(r.error_ns), r.error_valid ? 1 : 0,
            static_cast<long long>(r.regret_ns),
            static_cast<long long>(r.hindsight_best_ns), r.regret_valid ? 1 : 0,
            heard_count, accepted_count, node_str(r.blamed).c_str(),
            static_cast<long long>(r.blamed_overshoot_ns));
  }
  return out;
}

}  // namespace domino::obs

// Prediction audit: per-command decision records reconciled against
// realized outcomes.
//
// Domino's client decides per request between DFP and DM by comparing the
// *predicted* commit latencies LatDFP and LatDM, and stamps DFP proposals
// with a *predicted* supermajority arrival deadline (paper Sections 5.4 and
// 5.6). The rest of the observability layer records what happened; this
// module records what was predicted, so the two can be reconciled exactly:
//
//   - prediction error  = realized commit latency - predicted latency of
//                         the chosen path (signed),
//   - oracle regret     = realized commit latency - best-in-hindsight
//                         estimate min(LatDFP, LatDM). Both estimates are
//                         captured at the choice point, so the identity
//                         regret_ns == realized_ns - hindsight_best_ns is
//                         exact (integer virtual-time nanoseconds) and is
//                         enforced by the `ctest -L predict` suite,
//   - misprediction attribution = for a DFP request that missed its fast
//                         path, the replica whose realized arrival offset
//                         overshot its predicted offset the most among the
//                         rejecting replicas — the stale/wrong estimate
//                         that blew the deadline.
//
// One DecisionRecord is opened per proposed command and finalized exactly
// once, at commit, in commit order; a record that never commits (abandoned
// under chaos) stays pending and is counted, never silently dropped.
// Everything is integer arithmetic over virtual time: same-seed runs export
// byte-identical decision CSVs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/metrics.h"

namespace domino::obs {

/// Which subsystem the client sent the request through.
enum class DecisionPath : std::uint8_t { kDfp, kDm };

/// Why the client was choosing at all.
enum class DecisionMode : std::uint8_t { kAuto, kDfpForced, kDmForced };

/// How the request eventually committed.
enum class DecisionOutcome : std::uint8_t {
  kPending,    // not reconciled yet
  kFastPath,   // DFP supermajority learned at the client
  kSlowPath,   // DFP coordinator slow-path reply
  kDmCommit,   // DM leader reply
};

[[nodiscard]] const char* to_string(DecisionPath p);
[[nodiscard]] const char* to_string(DecisionMode m);
[[nodiscard]] const char* to_string(DecisionOutcome o);

/// One replica's predicted vs realized arrival for a DFP proposal. The
/// realized side comes from the replica's DfpAcceptNotice: its local clock
/// when it processed the proposal, compared against the stamped deadline
/// and against the offset the client predicted for it at the choice point.
struct ReplicaArrival {
  NodeId replica;
  /// Client's predicted arrival offset for this replica at decision time
  /// (owd estimate at the configured percentile); max() if unknown.
  Duration predicted_offset = Duration::max();
  /// Realized arrival offset: replica local time at processing minus the
  /// client's local time at stamping.
  Duration realized_offset = Duration::zero();
  /// Replica local arrival time minus the stamped deadline; positive means
  /// the proposal arrived after its timestamp (rejected).
  Duration lateness = Duration::zero();
  bool accepted = false;
  /// A DfpAcceptNotice was actually received from this replica; the
  /// realized fields are meaningless until then.
  bool heard = false;
};

/// The full audit trail of one client decision.
struct DecisionRecord {
  RequestId request;
  NodeId client;
  TimePoint decided_at;  // true time of the choice
  DecisionMode mode = DecisionMode::kAuto;
  DecisionPath chosen = DecisionPath::kDm;

  // Estimates at the choice point (Duration::max() = no usable estimate).
  Duration predicted_dfp = Duration::max();
  Duration predicted_dm = Duration::max();
  NodeId dm_leader;  // predicted-best DM leader (the one used on the DM path)

  /// Auto choice preferred DFP but the adaptive controller's recent
  /// fast-path rate forced DM instead (Section 5.4 feedback override).
  bool adaptive_override = false;
  /// DFP was chosen but no usable arrival prediction existed, so the
  /// client fell back to DM inside propose_dfp.
  bool dfp_unpredictable = false;
  /// The request timed out on its original path and was re-routed through
  /// DM (failure handling; the realized outcome belongs to the retry).
  bool failover = false;

  // DFP stamping details (valid when the DFP path was actually taken).
  std::int64_t deadline_ts = 0;       // stamped timestamp = DFP log position
  TimePoint proposed_local;           // client local clock at stamping
  Duration additional_delay = Duration::zero();  // configured slack
  Duration adaptive_extra = Duration::zero();    // controller slack on top
  double recent_fast_rate = 1.0;      // controller state at the choice

  /// Predicted vs realized arrivals, in notice-arrival order (deterministic
  /// under the simulator). Only replicas actually heard from appear.
  std::vector<ReplicaArrival> arrivals;

  // ----- reconciliation (filled exactly once, at commit) -----
  DecisionOutcome outcome = DecisionOutcome::kPending;
  TimePoint committed_at;
  Duration realized = Duration::max();  // true-time commit latency

  /// realized - predicted(chosen path); valid only when that estimate was
  /// finite at the choice point.
  std::int64_t error_ns = 0;
  bool error_valid = false;
  /// realized - min(finite estimates); the exact oracle-regret identity.
  std::int64_t regret_ns = 0;
  std::int64_t hindsight_best_ns = 0;
  bool regret_valid = false;
  /// The replica blamed for a missed DFP fast path (invalid when the fast
  /// path hit, the DM path was taken, or no rejecting replica was heard).
  NodeId blamed;
  /// That replica's realized-minus-predicted arrival overshoot.
  std::int64_t blamed_overshoot_ns = 0;
};

/// Run-wide store of decision records. The Domino client opens a record at
/// its choice point, annotates it as the request progresses, and the
/// commit notification reconciles it. Bounded: records beyond the capacity
/// are counted as dropped, never silently lost.
class PredictionAudit {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit PredictionAudit(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Create metric handles in `registry` (predict.* counters/histograms).
  /// Optional; a no-registry audit still records and reconciles.
  void bind_metrics(MetricsRegistry* registry);

  /// Open the record for one proposed command. Ignored (and counted as
  /// dropped) once the store is full. Opening an id that is already pending
  /// is ignored — exactly one record per command.
  void open(const DecisionRecord& decision);

  /// Annotate the pending record: the DFP path was taken with this stamped
  /// deadline and these per-replica predicted offsets.
  void note_dfp(const RequestId& id, std::int64_t deadline_ts, TimePoint proposed_local,
                Duration additional_delay, Duration adaptive_extra,
                const std::vector<NodeId>& replicas,
                const std::vector<Duration>& predicted_offsets);

  /// Annotate: the DM path was taken (directly, as an in-propose fallback
  /// when `unpredictable`, or as a timeout failover).
  void note_dm(const RequestId& id, NodeId leader, bool unpredictable);

  /// Annotate: the request timed out and is being re-routed.
  void note_failover(const RequestId& id);

  /// One replica's DfpAcceptNotice for the pending record. `ts` must match
  /// the stamped deadline (stale notices from an older attempt are
  /// ignored); `replica_local_time` is the replica's clock at processing.
  void note_arrival(const RequestId& id, NodeId replica, std::int64_t ts,
                    TimePoint replica_local_time, bool accepted);

  /// The commit outcome kind, noted by the packet handler just before the
  /// commit is processed (the reconcile that follows uses the last noted
  /// kind). Ignored for unknown ids.
  void note_outcome(const RequestId& id, DecisionOutcome outcome);

  /// Finalize: compute error, regret and attribution, record metrics, and
  /// move the record to the reconciled list. Exactly once per command (a
  /// second call for the same id is a no-op).
  void reconcile(const RequestId& id, TimePoint committed_at, Duration realized);

  [[nodiscard]] const std::vector<DecisionRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t decisions() const { return obs_decisions_.value(); }
  [[nodiscard]] std::uint64_t reconciled() const { return records_.size(); }
  [[nodiscard]] std::uint64_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return obs_dropped_.value(); }

  // Deterministic aggregates over reconciled records (integer sums).
  [[nodiscard]] std::uint64_t fast_path() const { return fast_path_; }
  [[nodiscard]] std::uint64_t slow_path() const { return slow_path_; }
  [[nodiscard]] std::uint64_t dm_commits() const { return dm_commits_; }
  [[nodiscard]] std::uint64_t failovers() const { return obs_failovers_.value(); }
  [[nodiscard]] std::uint64_t adaptive_overrides() const {
    return obs_adaptive_overrides_.value();
  }
  [[nodiscard]] std::uint64_t regret_samples() const { return regret_samples_; }
  [[nodiscard]] std::int64_t regret_sum_ns() const { return regret_sum_ns_; }
  [[nodiscard]] std::int64_t regret_max_ns() const { return regret_max_ns_; }
  [[nodiscard]] std::uint64_t error_samples() const { return error_samples_; }
  [[nodiscard]] std::int64_t error_abs_sum_ns() const { return error_abs_sum_ns_; }

 private:
  DecisionRecord* find_pending(const RequestId& id);

  std::size_t capacity_;
  std::unordered_map<RequestId, DecisionRecord> pending_;
  std::vector<DecisionRecord> records_;  // reconciled, in commit order

  std::uint64_t fast_path_ = 0;
  std::uint64_t slow_path_ = 0;
  std::uint64_t dm_commits_ = 0;
  std::uint64_t regret_samples_ = 0;
  std::int64_t regret_sum_ns_ = 0;
  std::int64_t regret_max_ns_ = 0;
  std::uint64_t error_samples_ = 0;
  std::int64_t error_abs_sum_ns_ = 0;

  // predict.* metric handles (null when no registry is bound; the counters
  // count either way). Histograms only hold non-negative values, so signed
  // quantities split into over/under pairs.
  CounterHandle obs_decisions_;
  CounterHandle obs_reconciled_;
  CounterHandle obs_dropped_;
  CounterHandle obs_failovers_;
  CounterHandle obs_adaptive_overrides_;
  CounterHandle obs_blamed_;
  HistogramHandle obs_error_over_;    // realized above prediction
  HistogramHandle obs_error_under_;   // realized below prediction (|error|)
  HistogramHandle obs_regret_over_;   // paid more than hindsight best
  HistogramHandle obs_regret_under_;  // beat the estimate (|regret|)
  HistogramHandle obs_arrival_overshoot_;  // per heard replica, >0 only
  HistogramHandle obs_arrival_slack_;      // per heard replica, |<=0|
  HistogramHandle obs_deadline_miss_;      // per rejected replica lateness
};

/// Long-format CSV, one row per reconciled decision:
///   protocol,request,mode,chosen,outcome,failover,adaptive_override,
///   dfp_unpredictable,decided_ns,committed_ns,realized_ns,
///   predicted_dfp_ns,predicted_dm_ns,dm_leader,deadline_ts,
///   additional_delay_ns,adaptive_extra_ns,recent_fast_rate,
///   error_ns,error_valid,regret_ns,hindsight_best_ns,regret_valid,
///   arrivals_heard,arrivals_accepted,blamed,blamed_overshoot_ns
[[nodiscard]] std::string decisions_to_csv(const std::vector<DecisionRecord>& records,
                                           std::string_view protocol);

}  // namespace domino::obs

// Experiment runner: builds a deployment of one protocol on a simulated
// topology, applies the paper's workload, and returns latency statistics.
//
// The runner mirrors the paper's experimental settings (Section 7.1):
// replicas and clients placed in datacenters of the NA or Globe topology,
// open-loop clients at a fixed request rate, Zipfian keys, a warmup period
// excluded from measurement, and commit/execution latency collection.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/client.h"
#include "harness/collector.h"
#include "net/fault.h"
#include "net/latency_model.h"
#include "net/topology.h"
#include "obs/calibration.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/predict.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "recovery/durable.h"
#include "statemachine/workload.h"
#include "wan/delay_trace.h"

namespace domino::harness {

struct Scenario {
  net::Topology topology = net::Topology::globe();
  std::vector<std::size_t> replica_dcs;  // datacenter index per replica
  std::vector<std::size_t> client_dcs;   // datacenter index per client
  /// Index (into replica_dcs) of the Multi-Paxos leader / Fast Paxos and
  /// DFP coordinator.
  std::size_t leader_index = 0;

  double rps = 200.0;  // per client, open loop
  sm::WorkloadConfig workload;

  Duration warmup = seconds(2);
  Duration measure = seconds(20);
  Duration cooldown = seconds(2);

  std::uint64_t seed = 1;
  net::JitterParams jitter;
  Duration clock_offset_stddev = milliseconds(1);

  // WAN delay-trace replay (src/wan). When a trace is present, every
  // directed link it names replays that link's empirical delay
  // distribution (wan::EmpiricalLatency) instead of the synthetic jitter
  // model; links absent from the trace keep the default JitterLatency.
  /// Path of a trace CSV, or a directory of *.csv files loaded in sorted
  /// order; empty = no file-based trace.
  std::string trace_dir;
  /// Already-loaded/generated trace; takes precedence over trace_dir so
  /// benches and tests can replay generator output without touching disk.
  std::shared_ptr<const wan::DelayTrace> wan_trace;

  // Domino knobs.
  Duration additional_delay = Duration::zero();  // added to DFP timestamps
  double measurement_percentile = 95.0;
  Duration probe_interval = milliseconds(10);    // Section 7.1 default
  Duration measurement_window = seconds(1);
  core::ClientConfig::Mode domino_mode = core::ClientConfig::Mode::kAuto;
  /// Section 5.7 every-replica-learner mode: lowers execution latency by a
  /// WAN hop at the cost of O(n^2) acceptance traffic. On for the latency
  /// experiments, off for throughput runs.
  bool domino_all_learners = true;
  /// Section 5.4 adaptive feedback control (future-work extension).
  bool domino_adaptive = false;

  // Capacity model (Figure 13 throughput runs); zero = infinitely fast.
  Duration replica_service_time = Duration::zero();
  double node_egress_bps = 0.0;

  /// When true (default), the run records metrics and incidents (faults,
  /// client retries, recoveries) into RunResult::metrics /
  /// RunResult::trace. Disabling reduces every instrumentation site to one
  /// null-pointer branch.
  bool observability = true;
  /// Causal per-command spans (obs/span.h): every command gets a root span
  /// whose context is piggybacked on the wire, and the run computes
  /// critical-path latency attribution (RunResult::critical_paths). Opt-in:
  /// the piggybacked context adds bytes to every traced message, which
  /// would perturb bytes_sent stats and bandwidth-modelled runs. Requires
  /// `observability`.
  bool command_spans = false;
  /// Prediction audit (obs/predict.h): the Domino client records what it
  /// predicted at every choice point and reconciles it at commit into
  /// per-command error, oracle regret and misprediction attribution;
  /// probers additionally score their percentile predictions against every
  /// realized probe arrival (RunResult::calibration). Opt-in; requires
  /// `observability`. Wire format is untouched either way.
  bool prediction_audit = false;
  /// Time-series telemetry (obs/timeseries.h): a periodic simulator task
  /// snapshots metric deltas into fixed-capacity windows. Zero (default) =
  /// off: no sampler task is scheduled and every existing export stays
  /// byte-identical. Requires `observability`. The sampler only *reads*
  /// metrics, so enabling it never changes wire behaviour.
  Duration timeseries_interval = Duration::zero();
  /// Steady-state detector evaluated over the timeline after the run
  /// (obs/slo.h). Ignored unless timeseries_interval is set. The
  /// harness fills slo.evaluate_until with the end of the load window when
  /// left at its TimePoint::max() default, and derives the fault instants
  /// from `faults`.
  obs::SloConfig slo;

  // Robustness knobs (chaos runs).
  /// Timed fault events (crashes, partitions, degradations, route changes)
  /// installed into the network before the run starts. Empty = fault-free.
  net::FaultSchedule faults;
  /// When > 0, every client arms a per-request timeout and re-proposes
  /// (protocol-specific: Domino fails over to DM) up to
  /// client_max_retries times before abandoning the request.
  Duration client_request_timeout = Duration::zero();
  std::size_t client_max_retries = 3;

  // Crash-recovery knobs (amnesia runs).
  /// When true, every FaultEvent::kRecover wipes the recovered replica's
  /// volatile state through the network restart hook; the replica replays
  /// its durable image and catches up from live peers before re-entering
  /// quorums. When false, crashes only drop packets and a recovered node
  /// keeps its memory (the pre-durability fault model).
  bool amnesia_crashes = false;
  /// Simulated latency of one durable sync. Non-zero puts persistence on
  /// the protocol critical path (promises/acks/commit notices wait for it)
  /// even on fault-free runs. Durability is enabled whenever this is
  /// non-zero or amnesia_crashes is set.
  Duration sync_latency = Duration::zero();
};

struct RunResult {
  StatAccumulator commit_ms;                    // all clients
  std::vector<StatAccumulator> commit_per_client;
  StatAccumulator exec_ms;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;

  // Protocol-specific counters (zero when not applicable).
  std::uint64_t fast_path = 0;
  std::uint64_t slow_path = 0;
  std::uint64_t dfp_chosen = 0;
  std::uint64_t dm_chosen = 0;

  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;

  // Robustness accounting (all zero on fault-free runs without timeouts).
  /// Commits observed by clients over the WHOLE run (warmup + measure +
  /// cooldown) — unlike `committed`, which counts only the measurement
  /// window. The liveness invariant is
  ///   submitted == client_committed + client_abandoned + client_inflight_end.
  std::uint64_t client_committed = 0;
  std::uint64_t packets_dropped = 0;        // total, all reasons
  std::uint64_t drops_crashed_source = 0;
  std::uint64_t drops_crashed_dest = 0;
  std::uint64_t drops_partition = 0;
  /// Order-sensitive digest over every fault transition and drop; equal
  /// digests mean byte-identical fault/drop behaviour (determinism checks).
  std::uint64_t fault_digest = 0;
  std::uint64_t fault_transitions = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t client_abandoned = 0;
  std::uint64_t client_inflight_end = 0;    // submitted but never resolved
  /// KvStore::fingerprint() per replica, in replica order. Replicas that
  /// are crashed at the end of the run may legitimately lag; chaos tests
  /// compare the fingerprints of the live majority.
  std::vector<std::uint64_t> replica_store_fingerprints;
  std::vector<std::uint64_t> replica_applied_counts;
  /// Log entries (EPaxos: instances) each replica still holds when the run
  /// ends, in replica order. Executed state is compacted, so this counts
  /// what is in flight and does not grow with the run's length.
  std::vector<std::uint64_t> replica_retained_entries;
  /// Crash-recovery accounting summed over all replicas (the recovery.*
  /// metrics); all zero unless durability was enabled (see
  /// Scenario::amnesia_crashes / sync_latency).
  recovery::RecoveryStats recovery;
  /// Total crashed time over completed crash->recover pairs.
  std::int64_t recovery_downtime_ns = 0;

  /// Committed requests per second of measurement window.
  [[nodiscard]] double throughput_rps() const;
  Duration measure_window = Duration::zero();

  /// Latency order statistics from the collector (single source of truth
  /// for reports and bench tables).
  LatencySummary latency;

  /// Full metrics registry and incident log for the run; null when
  /// Scenario::observability is false. A fault-free run logs no incidents.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::TraceRecorder> trace;

  /// Per-command span DAG and critical-path attribution; spans is null (and
  /// critical_paths empty) unless Scenario::command_spans was set.
  std::shared_ptr<obs::SpanStore> spans;
  std::vector<obs::CommandPath> critical_paths;
  /// Decision records + reconciliation aggregates; null unless
  /// Scenario::prediction_audit was set (only Domino populates it).
  std::shared_ptr<obs::PredictionAudit> predict;
  /// Per-(owner,target) estimator-calibration rows, replicas first then
  /// clients, each in construction order; empty unless prediction_audit.
  std::vector<obs::CalibrationRow> calibration;

  /// Windowed telemetry frames; null unless Scenario::timeseries_interval
  /// was set (and observability was on).
  std::shared_ptr<obs::Timeseries> timeseries;
  /// Steady-state evaluation over the timeline; default-empty
  /// unless sampling was on. Also surfaced as slo.* metrics.
  obs::SloReport slo;
};

enum class Protocol { kMultiPaxos, kMencius, kEPaxos, kFastPaxos, kDomino };

[[nodiscard]] std::string protocol_name(Protocol p);

/// Run one protocol on one scenario.
[[nodiscard]] RunResult run_protocol(Protocol protocol, const Scenario& scenario);

/// Convenience wrappers.
[[nodiscard]] inline RunResult run_multipaxos(const Scenario& s) {
  return run_protocol(Protocol::kMultiPaxos, s);
}
[[nodiscard]] inline RunResult run_mencius(const Scenario& s) {
  return run_protocol(Protocol::kMencius, s);
}
[[nodiscard]] inline RunResult run_epaxos(const Scenario& s) {
  return run_protocol(Protocol::kEPaxos, s);
}
[[nodiscard]] inline RunResult run_fastpaxos(const Scenario& s) {
  return run_protocol(Protocol::kFastPaxos, s);
}
[[nodiscard]] inline RunResult run_domino(const Scenario& s) {
  return run_protocol(Protocol::kDomino, s);
}

/// The closest replica (index into replica_dcs) for a client datacenter,
/// by topology RTT — how the paper pre-configures Mencius/EPaxos clients.
[[nodiscard]] std::size_t closest_replica(const net::Topology& topology,
                                          const std::vector<std::size_t>& replica_dcs,
                                          std::size_t client_dc);

}  // namespace domino::harness

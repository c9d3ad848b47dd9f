// The three simulated workloads, driven through harness::run_protocol.
//
// A workload's unit of work is one run_protocol call per protocol on the
// workload's Scenario. The untraced pass repeats the unit for --seconds
// (at least twice) with the same seed: wall-clock metrics are medians over
// the repeats, and every repeat must reproduce the first one's virtual-time
// results bit for bit. The traced pass runs the unit untraced, traced, with
// default observability off, and on a second seed, then replays each
// layer's public functions.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "catalog.h"
#include "harness/runner.h"
#include "layers.h"
#include "report.h"
#include "spans.h"
#include "statemachine/workload.h"
#include "wan/delay_trace.h"
#include "workloads.h"

namespace perfbench {

using namespace domino;
using harness::Protocol;
using harness::RunResult;
using harness::Scenario;

namespace {

struct Crash {
  TimePoint at;
  NodeId node;
  Duration downtime;
};

struct SimSpec {
  std::string name;
  std::vector<Protocol> protocols;
  Scenario scenario;
  std::string trace_csv;  // empty = synthetic jitter only
  /// Replica crashes added to the scenario's faults for `crashed` only.
  std::vector<Crash> crashes;
  std::vector<Protocol> crashed;
};

Scenario scenario_for(const SimSpec& spec, const Scenario& base, Protocol p) {
  if (std::find(spec.crashed.begin(), spec.crashed.end(), p) == spec.crashed.end()) return base;
  Scenario s = base;
  for (const Crash& c : spec.crashes) s.faults.crash_for(c.at, c.node, c.downtime);
  return s;
}

const char* key_of(Protocol p) {
  switch (p) {
    case Protocol::kDomino: return "domino";
    case Protocol::kMultiPaxos: return "multipaxos";
    case Protocol::kMencius: return "mencius";
    case Protocol::kEPaxos: return "epaxos";
    case Protocol::kFastPaxos: return "fastpaxos";
  }
  return "?";
}

const char* span_of(Protocol p) {
  switch (p) {
    case Protocol::kDomino: return "harness.run_protocol.domino";
    case Protocol::kMultiPaxos: return "harness.run_protocol.multipaxos";
    case Protocol::kMencius: return "harness.run_protocol.mencius";
    case Protocol::kEPaxos: return "harness.run_protocol.epaxos";
    case Protocol::kFastPaxos: return "harness.run_protocol.fastpaxos";
  }
  return "harness.run_protocol";
}

/// Fig. 8c Globe setting: replicas WA/PR/NSW, WA leads, one open-loop
/// client per datacenter at 200 req/s, Zipf 0.75 over 1 M keys.
Scenario globe_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.leader_index = 0;
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) s.client_dcs.push_back(dc);
  s.rps = 200;
  s.warmup = seconds(2);
  s.measure = seconds(10);  // 12,000 measured commits per protocol
  s.cooldown = seconds(2);
  return s;
}

/// Fig. 13 private-cluster model (bench_fig13_peak_throughput.cpp's
/// cluster_scenario) at one offered load just under the single-leader knees
/// (Mencius saturates near 35K req/s and Multi-Paxos near 37K on this
/// model). Above them the leader queues grow for the whole run, and
/// Domino's DM replicas run so hot that its p99.9 swings 2x from seed to
/// seed.
Scenario cluster_scenario() {
  Scenario s;
  s.topology = net::Topology{
      {"m1", "m2", "m3"}, {{0, 0.2, 0.2}, {0.2, 0, 0.2}, {0.2, 0.2, 0}}, microseconds(100)};
  s.replica_dcs = {0, 1, 2};
  s.leader_index = 0;
  const std::size_t clients = 24;
  for (std::size_t c = 0; c < clients; ++c) s.client_dcs.push_back(c % 3);
  s.rps = 34'000.0 / static_cast<double>(clients);
  s.warmup = milliseconds(500);
  s.measure = milliseconds(1500);  // 51,000 measured commits per protocol
  s.cooldown = milliseconds(250);
  s.jitter.spike_prob = 0;
  s.jitter.jitter_mu_ms = -4.0;
  s.replica_service_time = microseconds(9);
  s.node_egress_bps = 1e9;
  s.clock_offset_stddev = microseconds(100);
  s.domino_all_learners = false;
  s.domino_mode = core::ClientConfig::Mode::kDmOnly;
  return s;
}

/// Globe with the VA links replaying a measured trace, durable syncs on the
/// critical path, client retries, windowed telemetry for time-to-steady-
/// state, a client<->replica partition and a degraded replica link.
Scenario faults_scenario() {
  Scenario s = globe_scenario();
  s.cooldown = seconds(3);  // retried requests drain before the run ends
  s.amnesia_crashes = true;
  s.sync_latency = milliseconds(2);
  s.client_request_timeout = milliseconds(1000);
  s.client_max_retries = 8;
  s.timeseries_interval = milliseconds(250);
  s.slo.steady_metric = "client.committed";
  s.slo.steady_tolerance = 0.75;
  s.slo.steady_windows = 2;
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  const net::Topology& t = s.topology;
  s.faults.partition_both_for(w0 + milliseconds(2500), t.index_of("VA"), t.index_of("PR"),
                              milliseconds(400));
  s.faults.degrade(w0 + milliseconds(5000), milliseconds(1500), t.index_of("WA"),
                   t.index_of("PR"), 2.0, 0.01, milliseconds(20));
  return s;
}

/// Amnesiac crashes of every replica in turn, the leader first, each shorter
/// than the 500 ms failure detector.
std::vector<Crash> amnesia_crashes(const Scenario& s) {
  std::vector<Crash> out;
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  for (std::uint32_t i = 0; i < s.replica_dcs.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    out.push_back(Crash{w0 + milliseconds(1500 + 3000 * k), NodeId{i}, milliseconds(300 + 25 * k)});
  }
  return out;
}

SimSpec make_spec(const Options& o) {
  SimSpec spec;
  spec.name = o.workload;
  if (o.workload == "globe_paper") {
    spec.protocols = {Protocol::kDomino, Protocol::kMultiPaxos, Protocol::kMencius,
                      Protocol::kEPaxos, Protocol::kFastPaxos};
    spec.scenario = globe_scenario();
  } else if (o.workload == "cluster_load") {
    spec.protocols = {Protocol::kDomino, Protocol::kMultiPaxos, Protocol::kMencius,
                      Protocol::kEPaxos};
    spec.scenario = cluster_scenario();
  } else {
    spec.protocols = {Protocol::kDomino, Protocol::kMultiPaxos};
    spec.scenario = faults_scenario();
    spec.trace_csv = o.root + "/bench/traces/globe_va.csv";
    // Domino is spared the replica crashes: under any amnesiac replica
    // restart in this setting the surviving Domino replicas stop executing
    // and their stores diverge, which fails the benchmark's own checks.
    spec.crashes = amnesia_crashes(spec.scenario);
    spec.crashed = {Protocol::kMultiPaxos};
  }
  spec.scenario.seed = o.seed;
  return spec;
}

/// The workload's set-up: load its delay trace, then make one run_protocol
/// call for Domino (which every workload runs) on its scenario cut to a
/// 1 ms schedule with no warm-up or cool-down. That covers what comes
/// before a run's first measured request: Env and node construction, trace
/// and fault installation, and one WorkloadGenerator per client. Returns
/// the wall time; the loaded trace is handed to the scenario so the runs
/// replay it without reloading.
double set_up(SimSpec& spec) {
  const double t0 = now_s();
  if (!spec.trace_csv.empty()) {
    spec.scenario.wan_trace =
        std::make_shared<const wan::DelayTrace>(wan::DelayTrace::load(spec.trace_csv));
  }
  Scenario s = scenario_for(spec, spec.scenario, Protocol::kDomino);
  s.warmup = Duration::zero();
  s.measure = milliseconds(1);
  s.cooldown = Duration::zero();
  static_cast<void>(harness::run_protocol(Protocol::kDomino, s));
  return now_s() - t0;
}

struct ProtoRun {
  Protocol protocol;
  RunResult result;
  double wall_s = 0.0;
};

struct Unit {
  std::vector<ProtoRun> runs;
  double wall_s = 0.0;
};

Unit run_unit(const SimSpec& spec, const Scenario& scenario, SpanRecorder& spans) {
  Unit unit;
  const double t0 = now_s();
  for (const Protocol p : spec.protocols) {
    const double r0 = now_s();
    ProtoRun run{p, {}, 0.0};
    {
      ScopedSpan span(spans, span_of(p));
      run.result = harness::run_protocol(p, scenario_for(spec, scenario, p));
    }
    run.wall_s = now_s() - r0;
    unit.runs.push_back(std::move(run));
  }
  unit.wall_s = now_s() - t0;
  return unit;
}

double pct(ProtoRun& run, double p) { return run.result.commit_ms.percentile(p); }

/// Everything a run decides in virtual time. Same seed, same digest; the
/// `behaviour_only` form leaves out what observability itself records.
std::string digest(Unit& unit, bool behaviour_only) {
  std::string out;
  char buf[512];
  for (ProtoRun& run : unit.runs) {
    RunResult& r = run.result;
    std::snprintf(buf, sizeof buf,
                  "%s sub=%" PRIu64 " com=%" PRIu64 " cc=%" PRIu64 " pk=%" PRIu64 " by=%" PRIu64
                  " dr=%" PRIu64 " fd=%" PRIx64 " re=%" PRIu64 " ab=%" PRIu64 " in=%" PRIu64
                  " fp=%" PRIu64 "/%" PRIu64 " dfp=%" PRIu64 "/%" PRIu64
                  " p50=%a p999=%a e50=%a;",
                  key_of(run.protocol), r.submitted, r.committed, r.client_committed,
                  r.packets_sent, r.bytes_sent, r.packets_dropped, r.fault_digest,
                  r.client_retries, r.client_abandoned, r.client_inflight_end, r.fast_path,
                  r.slow_path, r.dfp_chosen, r.dm_chosen, r.commit_ms.percentile(50),
                  r.commit_ms.percentile(99.9), r.exec_ms.percentile(50));
    out += buf;
    for (const std::uint64_t f : r.replica_store_fingerprints) {
      std::snprintf(buf, sizeof buf, "%" PRIx64 ",", f);
      out += buf;
    }
    if (!behaviour_only && r.metrics != nullptr) {
      r.metrics->visit([&](const std::string& name, const obs::Counter* c, const obs::Gauge*,
                           const obs::Histogram*) {
        if (c == nullptr) return;
        std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ",", name.c_str(), c->value());
        out += buf;
      });
    }
  }
  return out;
}

/// Correctness of one run: liveness accounting, replica convergence and the
/// workload's sizing promise (>= 10,000 measured commits per protocol).
void check_run(ProtoRun& run, Report& report) {
  const std::string who = key_of(run.protocol);
  const RunResult& r = run.result;
  if (r.submitted != r.client_committed + r.client_abandoned + r.client_inflight_end) {
    report.fail(who + ": submitted != committed + abandoned + in flight");
  }
  const auto& fps = r.replica_store_fingerprints;
  if (fps.empty() ||
      std::adjacent_find(fps.begin(), fps.end(), std::not_equal_to<>()) != fps.end()) {
    report.fail(who + ": replica store fingerprints disagree");
  }
  report.count_requests(r.submitted, r.client_abandoned + r.client_inflight_end);
  if (r.commit_ms.count() < 10'000) {
    report.fail(who + ": fewer than 10,000 measured commits; p99.9 is unsupported");
  }
}

std::uint64_t counter(const RunResult& r, const std::string& name) {
  if (r.metrics == nullptr) return 0;
  const obs::Counter* c = r.metrics->find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct VirtualSummary {
  std::map<std::string, double> p50;   // protocol key -> ms
  std::map<std::string, double> p999;  // protocol key -> ms
  double geomean_p50 = 0.0;
  double geomean_p999 = 0.0;
};

VirtualSummary summarize(Unit& unit) {
  VirtualSummary v;
  double log50 = 0.0;
  double log999 = 0.0;
  for (ProtoRun& run : unit.runs) {
    const std::string k = key_of(run.protocol);
    v.p50[k] = pct(run, 50);
    v.p999[k] = pct(run, 99.9);
    log50 += std::log(v.p50[k]);
    log999 += std::log(v.p999[k]);
  }
  const auto n = static_cast<double>(unit.runs.size());
  v.geomean_p50 = std::exp(log50 / n);
  v.geomean_p999 = std::exp(log999 / n);
  return v;
}

void print_protocol_table(Report& report, Unit& unit) {
  report.line("  %-11s %8s %10s %11s %9s %11s %9s %10s", "protocol", "samples", "p50_ms",
              "p99.9_ms", "beyond", "exec_p50", "failed", "pkts");
  for (ProtoRun& run : unit.runs) {
    RunResult& r = run.result;
    const std::size_t n = r.commit_ms.count();
    report.line("  %-11s %8zu %10.3f %11.3f %9zu %11.3f %9" PRIu64 " %10" PRIu64,
                key_of(run.protocol), n, pct(run, 50), pct(run, 99.9), n / 1000,
                r.exec_ms.percentile(50), r.client_abandoned + r.client_inflight_end,
                r.packets_sent);
  }
}

void print_samples(Report& report, const char* what, const std::vector<double>& s) {
  std::string each;
  for (const double v : s) each += " " + std::to_string(v);
  report.line("  %s wall times (s):%s", what, each.c_str());
}

void print_spread(Report& report, const char* name, const char* unit, const Spread& s) {
  report.line("  %-24s median %.6g %s  (q1 %.6g, q3 %.6g, n=%zu)", name, s.median, unit, s.q1,
              s.q3, s.n);
}

/// Per-layer metrics read from a traced unit's RunResults.
void layer_counts(Report& report, Unit& unit, const Scenario& scenario) {
  double committed = 0, submitted = 0, failed = 0, events = 0, dropped = 0, retries = 0;
  double received = 0, packets = 0, bytes = 0, probes = 0, trace_events = 0;
  double persisted = 0, catchup = 0, restarts = 0, rejoin_ns = 0, depth = 0;
  double recovery_ms = 0.0;
  std::size_t faults = 0, settled = 0;
  std::map<std::string, double> by_type;
  for (ProtoRun& run : unit.runs) {
    const std::string k = key_of(run.protocol);
    const auto count = [&run](const char* name) {
      return static_cast<double>(counter(run.result, name));
    };
    const double c = static_cast<double>(run.result.client_committed);
    const double sent = static_cast<double>(run.result.packets_sent);
    committed += c;
    submitted += static_cast<double>(run.result.submitted);
    failed += static_cast<double>(run.result.client_abandoned + run.result.client_inflight_end);
    events += count("sim.events_executed");
    dropped += static_cast<double>(run.result.packets_dropped);
    retries += static_cast<double>(run.result.client_retries);
    received += count("rpc.messages_received");
    packets += sent;
    bytes += static_cast<double>(run.result.bytes_sent);
    probes += count("measure.probes_sent");
    persisted += static_cast<double>(run.result.recovery.persisted_records);
    catchup += static_cast<double>(run.result.recovery.catchup_bytes);
    restarts += static_cast<double>(run.result.recovery.restarts);
    rejoin_ns += static_cast<double>(run.result.recovery.rejoin_ns_total);
    const RunResult& r = run.result;
    if (r.trace != nullptr) trace_events += static_cast<double>(r.trace->total_recorded());
    if (r.metrics != nullptr) {
      if (const obs::Gauge* g = r.metrics->find_gauge("sim.queue_depth")) {
        depth = std::max(depth, static_cast<double>(g->max()));
      }
      r.metrics->visit([&](const std::string& name, const obs::Counter* counter_ptr,
                           const obs::Gauge*, const obs::Histogram*) {
        if (counter_ptr != nullptr && name.rfind("rpc.received.", 0) == 0) {
          by_type[name.substr(13)] += static_cast<double>(counter_ptr->value());
        }
      });
    }
    // A fault that never settles counts as taking the rest of the load
    // window, so losing steady state makes recovery_ms worse, not better.
    const TimePoint load_end = TimePoint::epoch() + scenario.warmup + scenario.measure;
    for (const obs::SteadyStateResult& st : r.slo.steady) {
      ++faults;
      if (st.reached) ++settled;
      const Duration took = st.reached ? st.time_to_steady : load_end - st.fault.at;
      recovery_ms = std::max(recovery_ms, took.millis());
    }
    if (k != "domino") {
      report.layer("commit_p50_ms." + k, pct(run, 50), "ms");
      report.layer("commit_p999_ms." + k, pct(run, 99.9), "ms");
    }
    report.layer("harness.wall_s." + k, run.wall_s, "s");
    report.layer("harness.ns_per_pkt." + k, ratio(run.wall_s * 1e9, sent), "ns");
    report.layer("net.pkts_per_commit." + k, ratio(sent, c), "count");
    report.layer("net.bytes_per_commit." + k,
                 ratio(static_cast<double>(run.result.bytes_sent), c), "B");
    report.layer("log.exec_lag_ms." + k, run.result.exec_ms.percentile(50) - pct(run, 50), "ms");
    const double fast = static_cast<double>(run.result.fast_path);
    const double decided = fast + static_cast<double>(run.result.slow_path);
    switch (run.protocol) {
      case Protocol::kDomino: {
        const double dfp = static_cast<double>(run.result.dfp_chosen);
        const double dm = static_cast<double>(run.result.dm_chosen);
        report.layer("core.dfp_fast_frac", ratio(fast, decided), "ratio");
        report.layer("core.dfp_chosen_frac", ratio(dfp, dfp + dm), "ratio");
        break;
      }
      case Protocol::kMencius:
        report.layer("mencius.accepts_per_proposal",
                     ratio(count("mencius.accepts"), count("mencius.proposals")), "count");
        report.layer("mencius.skips_per_commit", ratio(count("mencius.skips"), c), "count");
        break;
      case Protocol::kEPaxos: report.layer("epaxos.fast_frac", ratio(fast, decided), "ratio"); break;
      case Protocol::kFastPaxos:
        report.layer("fastpaxos.fast_frac", ratio(fast, decided), "ratio");
        break;
      case Protocol::kMultiPaxos: {
        // Every Multi-Paxos message is sent or received by the leader.
        double leader = 0;
        for (const char* t : {"rpc.received.PaxosClientRequest", "rpc.received.PaxosAccept",
                              "rpc.received.PaxosAcceptReply", "rpc.received.PaxosCommit",
                              "rpc.received.PaxosClientReply"}) {
          leader += count(t);
        }
        report.layer("paxos.leader_msgs_per_commit", ratio(leader, c), "count");
        break;
      }
    }
  }
  report.layer("failed_frac", ratio(failed, submitted), "ratio");
  report.layer("recovery_ms", recovery_ms, "ms");
  if (faults > 0) {
    report.line("  steady state: %zu of %zu faults settled; recovery_ms %.3f (an unsettled "
                "fault counts to the end of the load window)",
                settled, faults, recovery_ms);
  }
  report.layer("sim.events_per_commit", ratio(events, committed), "count");
  report.layer("sim.queue_depth_max", depth, "count");
  report.layer("net.drops_per_commit", ratio(dropped, committed), "count");
  report.layer("wire.bytes_per_msg", ratio(bytes, packets), "B");
  report.layer("rpc.recv_per_commit", ratio(received, committed), "count");
  for (const wire::MessageType t : codec_types()) {
    const std::string name = wire::message_type_name(t);
    report.layer("rpc.recv_per_commit." + name, ratio(by_type[name], committed), "count");
  }
  report.layer("rpc.retries_per_commit", ratio(retries, committed), "count");
  report.layer("obs.trace_events_per_commit", ratio(trace_events, committed), "count");
  report.layer("recovery.persist_per_commit", ratio(persisted, committed), "count");
  report.layer("recovery.catchup_bytes", catchup, "B");
  report.layer("recovery.rejoin_ms", ratio(rejoin_ns / 1e6, restarts), "ms");
  const double virtual_s = (scenario.warmup + scenario.measure + scenario.cooldown).seconds() *
                           static_cast<double>(unit.runs.size());
  report.layer("measure.probes_per_s", ratio(probes, virtual_s), "1/s");
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [name, n] : by_type) top.emplace_back(n, name);
  std::sort(top.rbegin(), top.rend());
  std::string line;
  for (std::size_t i = 0; i < top.size() && i < 6; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s %.2f", top[i].second.c_str(),
                  ratio(top[i].first, committed));
    line += buf;
  }
  report.line("  top message types (received per commit):%s", line.c_str());
}

/// Work counts of one traced unit, for the estimated layer shares
/// (calls x replayed ns per call / unit wall time).
struct Totals {
  double events = 0, packets = 0, received = 0, probe_replies = 0, submitted = 0;
  double generators = 0, trace_link_msgs = 0;

  void add(const RunResult& r, const Scenario& s) {
    events += static_cast<double>(counter(r, "sim.events_executed"));
    packets += static_cast<double>(r.packets_sent);
    received += static_cast<double>(counter(r, "rpc.messages_received"));
    probe_replies += static_cast<double>(counter(r, "measure.probe_replies"));
    submitted += static_cast<double>(r.submitted);
    generators += static_cast<double>(s.client_dcs.size());
    if (r.metrics != nullptr && (s.wan_trace != nullptr || !s.trace_dir.empty())) {
      r.metrics->visit([&](const std::string& name, const obs::Counter* c, const obs::Gauge*,
                           const obs::Histogram*) {
        // Links the delay trace replays: every link to or from VA.
        const bool va = name.rfind("net.link.VA->", 0) == 0 ||
                        (name.rfind("net.link.", 0) == 0 && name.find("->VA.") != std::string::npos);
        if (c != nullptr && va && name.size() > 9 &&
            name.compare(name.size() - 9, 9, ".messages") == 0) {
          trace_link_msgs += static_cast<double>(c->value());
        }
      });
    }
  }

  [[nodiscard]] std::vector<std::string> estimates(const Report& report) const {
    const auto ns = [&report](const char* name) { return report.layers().at(name).value; };
    const std::vector<std::tuple<const char*, double, double>> rows = {
        {"sim", events, ns("sim.event_ns")},
        {"net", packets, ns("net.send_ns")},
        {"wire", received, ns("wire.encode_ns") + ns("wire.decode_ns")},
        {"measure", probe_replies, ns("measure.add_ns")},
        {"statemachine", submitted, ns("statemachine.next_ns")},
        {"statemachine.ctor", generators, ns("statemachine.workload_ctor_ms") * 1e6},
        {"wan", trace_link_msgs, ns("wan.sample_ns")},
    };
    std::vector<std::string> out;
    for (const auto& [layer, calls, per_call] : rows) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"estimate\",\"layer\":\"%s\",\"calls\":%.0f,\"ns_per_call\":%.3f}",
                    layer, calls, per_call);
      out.emplace_back(buf);
    }
    return out;
  }
};

/// The layer replays shaped like `spec`'s scenario: its commands and message
/// mix, estimator window, queue depth, topology and, on faults_trace, the
/// delay trace.
ReplayInputs replay_inputs(const SimSpec& spec, std::size_t queue_depth,
                           const std::map<std::string, double>& mix) {
  const Scenario& s = spec.scenario;
  ReplayInputs in;
  in.seed = s.seed;
  in.workload = s.workload;
  in.mix = mix;
  in.window_samples =
      static_cast<std::size_t>(s.measurement_window.nanos() / s.probe_interval.nanos());
  in.probe_interval = s.probe_interval;
  in.percentile = s.measurement_percentile;
  in.queue_depth = queue_depth;
  in.topology = s.topology;
  in.node_dcs = s.replica_dcs;
  in.node_dcs.insert(in.node_dcs.end(), s.client_dcs.begin(), s.client_dcs.end());
  in.jitter = s.jitter;
  in.trace_csv = spec.trace_csv;
  return in;
}

/// Mean per command of each critical-path phase, from one Domino run with
/// causal command spans on.
void domino_phases(Report& report, SpanRecorder& spans, const SimSpec& spec) {
  Scenario s = scenario_for(spec, spec.scenario, Protocol::kDomino);
  s.command_spans = true;
  ScopedSpan span(spans, "replay.core");
  RunResult r = harness::run_protocol(Protocol::kDomino, s);
  std::map<std::string, double> ns;
  for (const obs::CommandPath& p : r.critical_paths) {
    for (const obs::PathSegment& seg : p.segments) {
      ns[std::string(seg.phase)] += static_cast<double>(seg.duration().nanos());
    }
  }
  const auto commands = static_cast<double>(r.critical_paths.size());
  std::string seen;
  for (const auto& [phase, total] : ns) seen += " " + phase;
  report.line("  core: %zu critical paths (spans dropped %" PRIu64 "); phases:%s",
              r.critical_paths.size(), r.spans ? r.spans->dropped_spans() : 0, seen.c_str());
  for (const std::string& phase : phase_names()) {
    report.layer("core.phase_ms." + phase, ratio(ns[phase] / 1e6, commands), "ms");
  }
}

void print_virtual(Report& report, const char* label, const VirtualSummary& v) {
  report.line("  %s: commit_p50_ms.domino %.6f, commit_p999_ms.domino %.6f, "
              "commit_p50_ms.geomean %.6f, commit_p999_ms.geomean %.6f",
              label, v.p50.at("domino"), v.p999.at("domino"), v.geomean_p50, v.geomean_p999);
}

}  // namespace

void run_simulated(const Options& o, Report& report) {
  SimSpec spec = make_spec(o);
  SpanRecorder untraced(false);
  report.line("workload %s: %zu protocols, seed %" PRIu64 ", %s pass", spec.name.c_str(),
              spec.protocols.size(), o.seed, o.trace ? "traced" : "untraced");

  // The first set-up loads the delay trace every later run replays. It is
  // not timed: a fresh process's first set-up also pays for growing the
  // heap, which the units after it reuse.
  set_up(spec);

  if (!o.trace) {
    std::vector<double> walls, setup;
    Unit first;
    std::string first_digest;
    std::size_t repeats = 0;
    const double t0 = now_s();
    while (repeats < 2 || now_s() - t0 < o.seconds) {
      Unit unit = run_unit(spec, spec.scenario, untraced);
      walls.push_back(unit.wall_s);
      // Set-ups interleave with the units, so both sample the same stretch
      // of the machine's load.
      setup.push_back(set_up(spec));
      setup.push_back(set_up(spec));
      for (ProtoRun& run : unit.runs) check_run(run, report);
      std::string d = digest(unit, false);
      if (repeats == 0) {
        first_digest = std::move(d);
        first = std::move(unit);
      } else if (d != first_digest) {
        report.fail("determinism: a same-seed repeat changed virtual-time results");
      }
      ++repeats;
    }
    const VirtualSummary v = summarize(first);
    const Spread wall = spread_of(walls);
    const Spread setup_spread = spread_of(setup);
    print_protocol_table(report, first);
    print_samples(report, "set-up", setup);
    print_samples(report, "unit", walls);
    report.line("  determinism: %zu same-seed repeats bit-identical: %s", repeats,
                report.correct() ? "yes" : "NO");
    print_spread(report, "setup_s", "s", setup_spread);
    print_spread(report, "run_wall_s", "s", wall);
    print_virtual(report, "virtual", v);
    report.e2e("setup_s", setup_spread.median, "s");
    report.e2e("commit_p50_ms.domino", v.p50.at("domino"), "ms");
    report.e2e("commit_p999_ms.domino", v.p999.at("domino"), "ms");
    report.e2e("commit_p50_ms.geomean", v.geomean_p50, "ms");
    report.e2e("commit_p999_ms.geomean", v.geomean_p999, "ms");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced pass: untraced, traced and observability-off units interleaved
  // twice, so slow drift of the machine hits all three alike.
  zero_layers(report);
  SpanRecorder spans(true);
  Scenario dark = spec.scenario;
  dark.observability = false;
  std::vector<double> plain_s, traced_s, off_s;
  Unit traced;
  std::string reference;
  for (int rep = 0; rep < 2; ++rep) {
    Unit plain = run_unit(spec, spec.scenario, untraced);
    plain_s.push_back(plain.wall_s);
    if (rep == 0) reference = digest(plain, false);
    {
      ScopedSpan span(spans, "workload");
      traced = run_unit(spec, spec.scenario, spans);
    }
    traced_s.push_back(traced.wall_s);
    if (digest(traced, false) != reference) {
      report.fail("determinism: a traced unit changed virtual-time results");
    }
    Unit off = run_unit(spec, dark, untraced);
    off_s.push_back(off.wall_s);
    if (digest(off, true) != digest(traced, true)) {
      report.fail("observability off changed virtual-time results");
    }
  }
  for (ProtoRun& run : traced.runs) check_run(run, report);
  const double plain_wall = spread_of(plain_s).median;
  const double traced_wall = spread_of(traced_s).median;
  const double off_wall = spread_of(off_s).median;
  print_protocol_table(report, traced);
  layer_counts(report, traced, spec.scenario);
  report.layer("run_wall_s", plain_wall, "s");
  report.layer("obs.default_cost_frac", plain_wall / off_wall - 1.0, "ratio");
  report.layer("obs.tracing_overhead_frac", traced_wall / plain_wall - 1.0, "ratio");

  std::map<std::string, double> mix;
  Totals totals;
  for (ProtoRun& run : traced.runs) {
    for (const wire::MessageType t : codec_types()) {
      const std::string name = wire::message_type_name(t);
      mix[name] += static_cast<double>(counter(run.result, "rpc.received." + name));
    }
    totals.add(run.result, spec.scenario);
  }
  const auto depth = static_cast<std::size_t>(
      std::max(1.0, report.layers().at("sim.queue_depth_max").value));
  {
    ScopedSpan span(spans, "replay");
    replay_layers(report, spans, replay_inputs(spec, depth, mix));
  }
  domino_phases(report, spans, spec);
  if (spec.name == "globe_paper") {
    // The socket transport is not a gated workload (see README.md); its
    // layers are measured here so every layer has numbers on one of them.
    ScopedSpan span(spans, "replay.tcp");
    measure_tcp_layers(o.seed, 2.0, report);
  }

  // A second seed, reported beside the first: claims must hold on a seed
  // not used while writing a change.
  SimSpec other = spec;
  other.scenario.seed = o.seed + 1'000'003;
  Unit second = run_unit(other, other.scenario, untraced);
  for (ProtoRun& run : second.runs) check_run(run, report);
  char label[64];
  std::snprintf(label, sizeof label, "virtual, seed %" PRIu64, o.seed);
  print_virtual(report, label, summarize(traced));
  std::snprintf(label, sizeof label, "virtual, seed %" PRIu64, other.scenario.seed);
  print_virtual(report, label, summarize(second));
  report.line("  wall (mean of 2 interleaved): untraced unit %.3f s, traced unit %.3f s, "
              "observability off %.3f s",
              plain_wall, traced_wall, off_wall);

  if (!o.spans_path.empty()) {
    char header[512];
    std::snprintf(header, sizeof header,
                  "{\"kind\":\"meta\",\"workload\":\"%s\",\"seed\":%" PRIu64
                  ",\"run_wall_s\":%.9f,\"untraced_wall_s\":%.9f,\"traced_wall_s\":%.9f}",
                  spec.name.c_str(), o.seed, traced_wall, plain_wall, traced_wall);
    write_spans(report, spans, o.spans_path, header, totals.estimates(report));
  }
}

}  // namespace perfbench

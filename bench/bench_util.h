// Shared helpers for the experiment binaries: the paper's standard
// deployments (Section 7.2) and result formatting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/report.h"
#include "harness/run_report.h"
#include "harness/runner.h"
#include "measure/prober.h"
#include "net/network.h"
#include "obs/export.h"
#include "rpc/node.h"

namespace domino::bench {

/// NA setting (Section 7.2): 9 datacenters, replicas WA/VA/QC (3-replica
/// runs) + CA/TX (5-replica runs), WA hosts the leader/coordinator, one
/// client per datacenter.
inline harness::Scenario na_scenario(std::size_t replica_count) {
  harness::Scenario s;
  s.topology = net::Topology::north_america();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("VA"),
                   s.topology.index_of("QC")};
  if (replica_count == 5) {
    s.replica_dcs.push_back(s.topology.index_of("CA"));
    s.replica_dcs.push_back(s.topology.index_of("TX"));
  }
  s.leader_index = 0;  // WA
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) s.client_dcs.push_back(dc);
  return s;
}

/// Globe setting (Section 7.2): 6 datacenters, replicas WA/PR/NSW, WA hosts
/// the leader/coordinator, one client per datacenter.
inline harness::Scenario globe_scenario() {
  harness::Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.leader_index = 0;  // WA
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) s.client_dcs.push_back(dc);
  return s;
}

/// Run one protocol over several seeds and merge the latency samples — the
/// paper runs every experiment 10 times and combines the results.
inline harness::RunResult run_repeated(harness::Protocol protocol, harness::Scenario s,
                                       int repetitions) {
  harness::RunResult total;
  for (int i = 0; i < repetitions; ++i) {
    s.seed = s.seed * 31 + static_cast<std::uint64_t>(i) + 1;
    harness::RunResult r = harness::run_protocol(protocol, s);
    total.commit_ms.merge(r.commit_ms);
    total.exec_ms.merge(r.exec_ms);
    total.submitted += r.submitted;
    total.committed += r.committed;
    total.fast_path += r.fast_path;
    total.slow_path += r.slow_path;
    total.dfp_chosen += r.dfp_chosen;
    total.dm_chosen += r.dm_chosen;
    total.packets_sent += r.packets_sent;
    total.bytes_sent += r.bytes_sent;
    total.client_retries += r.client_retries;
    total.client_abandoned += r.client_abandoned;
    total.measure_window += r.measure_window;
    // Keep the first repetition's windowed telemetry and SLO verdicts: the
    // timeline is a per-run object (window deltas don't merge across seeds),
    // and one representative seed is what the regression tooling diffs.
    if (i == 0) {
      total.timeseries = r.timeseries;
      total.slo = std::move(r.slo);
    }
    if (total.commit_per_client.size() < r.commit_per_client.size()) {
      total.commit_per_client.resize(r.commit_per_client.size());
    }
    for (std::size_t c = 0; c < r.commit_per_client.size(); ++c) {
      total.commit_per_client[c].merge(r.commit_per_client[c]);
    }
  }
  return total;
}

/// Run one traced run (command_spans on) and print where committed commands
/// spent their time: per critical-path phase, total/mean attribution and its
/// share of the summed end-to-end latency (shares tile to 100% because the
/// analyzer partitions [submit, commit] exactly). Piggybacked trace context
/// changes wire bytes, so the breakdown uses its own run instead of
/// instrumenting the measured ones.
inline void print_phase_breakdown(harness::Protocol protocol, harness::Scenario s,
                                  const char* label) {
  s.command_spans = true;
  const harness::RunResult r = harness::run_protocol(protocol, s);
  struct Cell {
    std::int64_t ns = 0;
    std::uint64_t hits = 0;
  };
  std::map<std::string_view, Cell> phases;
  std::int64_t total_ns = 0;
  for (const obs::CommandPath& p : r.critical_paths) {
    for (const obs::PathSegment& seg : p.segments) {
      Cell& cell = phases[seg.phase];
      cell.ns += seg.duration().nanos();
      cell.hits += 1;
      total_ns += seg.duration().nanos();
    }
  }
  std::printf("\n%s commit-path phase attribution (%zu commands, traced run):\n", label,
              r.critical_paths.size());
  if (total_ns == 0) {
    std::printf("  (no committed commands)\n");
    return;
  }
  std::vector<std::pair<std::string_view, Cell>> rows(phases.begin(), phases.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.ns > b.second.ns; });
  for (const auto& [phase, cell] : rows) {
    std::printf("  %-24.*s total %10.1f ms  mean %8.3f ms  %5.1f%%\n",
                static_cast<int>(phase.size()), phase.data(),
                static_cast<double>(cell.ns) / 1e6,
                static_cast<double>(cell.ns) / static_cast<double>(cell.hits) / 1e6,
                100.0 * static_cast<double>(cell.ns) / static_cast<double>(total_ns));
  }
}

/// Run one audited run (prediction_audit on) and print the prediction-audit
/// digest: decision mix, mean absolute prediction error, oracle regret
/// (total / mean / max over the run), misprediction blame per replica, and
/// the estimator-calibration coverage of every prober. The audit is pure
/// observation (no wire or timing changes), but the digest uses its own run
/// so the measured runs stay untouched.
inline void print_prediction_audit(harness::Protocol protocol, harness::Scenario s,
                                   const char* label) {
  s.prediction_audit = true;
  const harness::RunResult r = harness::run_protocol(protocol, s);
  if (r.predict == nullptr) return;
  const obs::PredictionAudit& a = *r.predict;
  std::printf("\n%s prediction audit (%llu decisions, %llu reconciled):\n", label,
              static_cast<unsigned long long>(a.decisions()),
              static_cast<unsigned long long>(a.reconciled()));
  if (a.reconciled() == 0) {
    std::printf("  (no reconciled decisions)\n");
    return;
  }
  std::printf("  outcomes: fast_path %llu, slow_path %llu, dm_commit %llu"
              " (failovers %llu, adaptive overrides %llu)\n",
              static_cast<unsigned long long>(a.fast_path()),
              static_cast<unsigned long long>(a.slow_path()),
              static_cast<unsigned long long>(a.dm_commits()),
              static_cast<unsigned long long>(a.failovers()),
              static_cast<unsigned long long>(a.adaptive_overrides()));
  if (a.error_samples() > 0) {
    std::printf("  prediction error: mean |realized - predicted| %.3f ms"
                " over %llu decisions\n",
                static_cast<double>(a.error_abs_sum_ns()) /
                    static_cast<double>(a.error_samples()) / 1e6,
                static_cast<unsigned long long>(a.error_samples()));
  }
  if (a.regret_samples() > 0) {
    std::printf("  oracle regret: total %.1f ms, mean %.3f ms, max %.3f ms"
                " over %llu decisions\n",
                static_cast<double>(a.regret_sum_ns()) / 1e6,
                static_cast<double>(a.regret_sum_ns()) /
                    static_cast<double>(a.regret_samples()) / 1e6,
                static_cast<double>(a.regret_max_ns()) / 1e6,
                static_cast<unsigned long long>(a.regret_samples()));
  }
  std::map<NodeId, std::uint64_t> blamed;
  for (const obs::DecisionRecord& rec : a.records()) {
    if (rec.blamed.valid()) ++blamed[rec.blamed];
  }
  if (!blamed.empty()) {
    std::printf("  blamed for missed fast paths:");
    for (const auto& [node, count] : blamed) {
      std::printf(" %s x%llu", node.to_string().c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  if (!r.calibration.empty()) {
    std::uint64_t samples = 0;
    std::uint64_t covered = 0;
    const obs::CalibrationRow* worst = nullptr;
    for (const obs::CalibrationRow& row : r.calibration) {
      samples += row.samples;
      covered += row.covered;
      if (worst == nullptr || row.coverage() < worst->coverage()) worst = &row;
    }
    std::printf("  calibration: %zu series, overall coverage %.3f;"
                " worst %s->%s at %.3f (max overshoot %.3f ms)\n",
                r.calibration.size(),
                static_cast<double>(covered) / static_cast<double>(samples),
                worst->owner.to_string().c_str(), worst->target.to_string().c_str(),
                worst->coverage(), static_cast<double>(worst->max_overshoot_ns) / 1e6);
  }
}

/// A bare measurement node: answers probes and probes `targets` with a
/// default-configured measure::Prober (the Table 1/4 RTT benches).
class ProbeClient : public rpc::Node {
 public:
  ProbeClient(NodeId id, std::size_t dc, rpc::Context& context, std::vector<NodeId> targets)
      : rpc::Node(id, dc, context), prober(*this, std::move(targets), {}) {}
  measure::Prober prober;

 protected:
  void on_packet(const net::Packet& packet) override {
    switch (wire::peek_type(packet.payload)) {
      case wire::MessageType::kProbe: {
        const auto probe = wire::decode_message<measure::Probe>(packet.payload);
        send(packet.src, measure::Prober::make_reply(probe, local_now(), Duration::zero()));
        break;
      }
      case wire::MessageType::kProbeReply:
        prober.on_probe_reply(packet.src,
                              wire::decode_message<measure::ProbeReply>(packet.payload));
        break;
      default:
        break;
    }
  }
};

/// Place ProbeClient NodeId{i} in datacenter i of `network`'s topology, let
/// every node probe every node for 5 s of virtual time, and return them.
inline std::vector<std::unique_ptr<ProbeClient>> probe_all_datacenters(net::Network& network) {
  const std::size_t n = network.topology().size();
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(NodeId{static_cast<std::uint32_t>(i)});
  std::vector<std::unique_ptr<ProbeClient>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<ProbeClient>(ids[i], i, network, ids));
    nodes.back()->attach();
  }
  for (auto& node : nodes) node->prober.start();
  network.simulator().run_until(TimePoint::epoch() + seconds(5));
  return nodes;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s)\n", paper_ref.c_str());
  std::printf("==========================================================\n");
}

/// One labelled result row for emit_json_report.
struct NamedResult {
  std::string label;
  const harness::RunResult* result;
};

/// Emit a machine-readable summary of a bench run next to the human table:
/// a schema-v2 JSON object carrying the run metadata (so
/// scripts/bench_compare.py can refuse apples-to-oranges comparisons), one
/// stats row per label, and — when the scenario sampled a timeline — the
/// per-window telemetry of each result. Deterministic for deterministic
/// inputs.
inline void emit_json_report(const std::string& path, const std::string& figure,
                             const harness::Scenario& scenario, int repetitions,
                             const std::vector<NamedResult>& results) {
  using obs::appendf;
  std::string out = "{\n\"schema_version\":2,\n\"figure\":\"" +
                    obs::json_escape(figure) + "\",\n\"meta\":{";
  appendf(out, "\"replicas\":%zu,\"clients\":%zu,\"topology_dcs\":%zu",
          scenario.replica_dcs.size(), scenario.client_dcs.size(),
          scenario.topology.size());
  out += ",\"replica_sites\":[";
  for (std::size_t i = 0; i < scenario.replica_dcs.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + obs::json_escape(scenario.topology.name(scenario.replica_dcs[i])) + "\"";
  }
  out += ']';
  appendf(out, ",\"leader_index\":%zu,\"rps_per_client\":%.3f", scenario.leader_index,
          scenario.rps);
  appendf(out, ",\"warmup_ms\":%.3f,\"measure_ms\":%.3f,\"cooldown_ms\":%.3f",
          scenario.warmup.millis(), scenario.measure.millis(),
          scenario.cooldown.millis());
  appendf(out, ",\"base_seed\":%llu,\"repetitions\":%d",
          static_cast<unsigned long long>(scenario.seed), repetitions);
  appendf(out, ",\"timeseries_interval_ms\":%.3f",
          scenario.timeseries_interval.millis());
  out += "},\n\"results\":{";
  bool first = true;
  for (const NamedResult& nr : results) {
    if (nr.result == nullptr) continue;
    const harness::RunResult& r = *nr.result;
    if (!first) out += ",";
    first = false;
    const harness::LatencyStats commit = harness::summarize_stats(r.commit_ms);
    const harness::LatencyStats exec = harness::summarize_stats(r.exec_ms);
    out += "\n\"" + obs::json_escape(nr.label) + "\":";
    appendf(out, "{\"committed\":%llu,\"submitted\":%llu,\"fast_path\":%llu,"
                 "\"slow_path\":%llu,\"throughput_rps\":%.3f",
            static_cast<unsigned long long>(r.committed),
            static_cast<unsigned long long>(r.submitted),
            static_cast<unsigned long long>(r.fast_path),
            static_cast<unsigned long long>(r.slow_path), r.throughput_rps());
    appendf(out, ",\"packets_sent\":%llu,\"bytes_sent\":%llu,"
                 "\"client_retries\":%llu,\"client_abandoned\":%llu",
            static_cast<unsigned long long>(r.packets_sent),
            static_cast<unsigned long long>(r.bytes_sent),
            static_cast<unsigned long long>(r.client_retries),
            static_cast<unsigned long long>(r.client_abandoned));
    appendf(out, ",\"commit_ms\":{\"count\":%zu,\"mean\":%.6f,\"p50\":%.6f,"
                 "\"p95\":%.6f,\"p99\":%.6f}",
            commit.count, commit.mean, commit.p50, commit.p95, commit.p99);
    appendf(out, ",\"exec_ms\":{\"count\":%zu,\"mean\":%.6f,\"p50\":%.6f,"
                 "\"p95\":%.6f,\"p99\":%.6f}",
            exec.count, exec.mean, exec.p50, exec.p95, exec.p99);
    if (r.timeseries != nullptr) {
      out += ",\"timeline\":";
      obs::append_timeseries_json(out, *r.timeseries);
    }
    out += '}';
  }
  out += "\n}\n}\n";
  if (obs::write_file(path, out)) {
    std::printf("\n[json report written to %s]\n", path.c_str());
  }
}

}  // namespace domino::bench

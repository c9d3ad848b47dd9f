// The fixed metric catalog shared by every workload. A workload that does
// not exercise a layer reports 0 for that layer's metrics, so every traced
// run prints the same names.
#include "catalog.h"

#include "layers.h"
#include "wire/message.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"globe_paper", "cluster_load", "faults_trace",
                                                 "tcp_loopback"};
  return names;
}

const std::vector<std::string>& protocol_keys() {
  static const std::vector<std::string> keys = {"domino", "multipaxos", "mencius", "epaxos",
                                                "fastpaxos"};
  return keys;
}

const std::vector<std::string>& phase_names() {
  static const std::vector<std::string> phases = {
      "dfp_propose_transit", "dfp_quorum_wait", "dm_forward_transit", "dm_accept_transit",
      "dm_quorum_wait",      "reply_transit"};
  return phases;
}

std::vector<MetricName> end_to_end_catalog() {
  return {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"commit_p50_ms.domino", "ms"},
      {"commit_p999_ms.domino", "ms"},
      {"commit_p50_ms.geomean", "ms"},
      {"commit_p999_ms.geomean", "ms"},
  };
}

std::vector<MetricName> per_layer_catalog() {
  std::vector<MetricName> out;
  const auto add = [&out](std::string name, std::string unit) {
    out.push_back({std::move(name), std::move(unit)});
  };
  // harness: the wall time of the workload's unit (host drift moves it too
  // far between runs to gate), the end-to-end view per protocol, and the
  // cost of each run.
  add("run_wall_s", "s");
  for (const std::string& p : protocol_keys()) {
    if (p == "domino") continue;  // gated end-to-end metrics already
    add("commit_p50_ms." + p, "ms");
    add("commit_p999_ms." + p, "ms");
  }
  add("failed_frac", "ratio");
  add("recovery_ms", "ms");
  for (const std::string& p : protocol_keys()) add("harness.wall_s." + p, "s");
  for (const std::string& p : protocol_keys()) add("harness.ns_per_pkt." + p, "ns");
  // sim
  add("sim.events_per_commit", "count");
  add("sim.queue_depth_max", "count");
  add("sim.event_ns", "ns");
  // net
  for (const std::string& p : protocol_keys()) add("net.pkts_per_commit." + p, "count");
  for (const std::string& p : protocol_keys()) add("net.bytes_per_commit." + p, "B");
  add("net.send_ns", "ns");
  add("net.drops_per_commit", "count");
  // wire
  add("wire.encode_ns", "ns");
  add("wire.decode_ns", "ns");
  add("wire.bytes_per_msg", "B");
  for (const domino::wire::MessageType t : codec_types()) {
    add(std::string("wire.encode_ns.") + domino::wire::message_type_name(t), "ns");
    add(std::string("wire.decode_ns.") + domino::wire::message_type_name(t), "ns");
  }
  // rpc
  add("rpc.recv_per_commit", "count");
  for (const domino::wire::MessageType t : codec_types()) {
    add(std::string("rpc.recv_per_commit.") + domino::wire::message_type_name(t), "count");
  }
  add("rpc.retries_per_commit", "count");
  add("rpc.dispatch_self_ns", "ns");
  add("rpc.send_ns", "ns");
  // tcp
  add("tcp.poll_busy_frac", "ratio");
  add("tcp.events_per_poll", "count");
  add("tcp.send_self_ns", "ns");
  // measure
  add("measure.probes_per_s", "1/s");
  add("measure.percentile_ns", "ns");
  add("measure.add_ns", "ns");
  // statemachine
  add("statemachine.workload_ctor_ms", "ms");
  add("statemachine.next_ns", "ns");
  // core (Domino)
  add("core.dfp_fast_frac", "ratio");
  add("core.dfp_chosen_frac", "ratio");
  for (const std::string& ph : phase_names()) add("core.phase_ms." + ph, "ms");
  // baselines
  add("mencius.accepts_per_proposal", "count");
  add("mencius.skips_per_commit", "count");
  add("epaxos.fast_frac", "ratio");
  add("fastpaxos.fast_frac", "ratio");
  add("paxos.leader_msgs_per_commit", "count");
  // log
  for (const std::string& p : protocol_keys()) add("log.exec_lag_ms." + p, "ms");
  // recovery
  add("recovery.persist_per_commit", "count");
  add("recovery.catchup_bytes", "B");
  add("recovery.rejoin_ms", "ms");
  // wan
  add("wan.load_s", "s");
  add("wan.sample_ns", "ns");
  // obs
  add("obs.trace_events_per_commit", "count");
  add("obs.default_cost_frac", "ratio");
  add("obs.tracing_overhead_frac", "ratio");
  return out;
}

void zero_layers(Report& report) {
  for (const MetricName& m : per_layer_catalog()) report.layer(m.name, 0.0, m.unit);
}

}  // namespace perfbench

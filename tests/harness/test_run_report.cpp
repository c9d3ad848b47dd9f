// Integration tests of the observability layer: a real Domino run must
// produce a consistent metrics registry, per-link delivery histograms and a
// deterministic trace, all exposed through the run report.
#include "harness/run_report.h"

#include <gtest/gtest.h>

#include "obs/chrome_trace.h"
#include "obs/export.h"

namespace domino::harness {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 1, 2};
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  s.cooldown = seconds(1);
  s.seed = 11;
  return s;
}

TEST(RunReport, DominoMetricsMatchReplicaCounters) {
  const RunResult r = run_domino(small_scenario());
  ASSERT_NE(r.metrics, nullptr);

  // The registry's Domino counters are incremented at the same sites as the
  // replica-local counters the RunResult sums, so they must agree exactly.
  const auto* fast = r.metrics->find_counter("domino.dfp.fast_commits");
  const auto* slow = r.metrics->find_counter("domino.dfp.slow_commits");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(fast->value(), r.fast_path);
  EXPECT_EQ(slow->value(), r.slow_path);
  EXPECT_GT(fast->value(), 0u);

  const auto* dfp_chosen = r.metrics->find_counter("domino.client.dfp_chosen");
  ASSERT_NE(dfp_chosen, nullptr);
  EXPECT_EQ(dfp_chosen->value(), r.dfp_chosen);

  // Client-side commit accounting agrees with the collector's view plus the
  // commits outside the measurement window.
  const auto* committed = r.metrics->find_counter("client.committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_GE(committed->value(), r.committed);
}

TEST(RunReport, PerLinkDeliveryHistogramsPresent) {
  const RunResult r = run_domino(small_scenario());
  ASSERT_NE(r.metrics, nullptr);
  // Replicas sit in WA, PR and NSW; the WA->PR link must have carried
  // messages with positive WAN delivery delays.
  const auto* delay = r.metrics->find_histogram("net.link.WA->PR.delay_ns");
  const auto* msgs = r.metrics->find_counter("net.link.WA->PR.messages");
  const auto* bytes = r.metrics->find_counter("net.link.WA->PR.bytes");
  ASSERT_NE(delay, nullptr);
  ASSERT_NE(msgs, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(delay->count(), msgs->value());
  EXPECT_GT(msgs->value(), 0u);
  EXPECT_GT(bytes->value(), msgs->value());  // every message has a payload
  EXPECT_GT(delay->min(), 0);                // WAN link: delay is never zero
}

TEST(RunReport, TransportAndSimMetricsPopulated) {
  const RunResult r = run_domino(small_scenario());
  ASSERT_NE(r.metrics, nullptr);
  const auto* sent = r.metrics->find_counter("rpc.messages_sent");
  const auto* received = r.metrics->find_counter("rpc.messages_received");
  const auto* events = r.metrics->find_counter("sim.events_executed");
  const auto* probes = r.metrics->find_counter("measure.probes_sent");
  ASSERT_NE(sent, nullptr);
  ASSERT_NE(received, nullptr);
  ASSERT_NE(events, nullptr);
  ASSERT_NE(probes, nullptr);
  EXPECT_GT(sent->value(), 0u);
  EXPECT_GE(sent->value(), received->value());  // drops + in-flight at stop
  EXPECT_GT(events->value(), sent->value());    // timers on top of messages
  EXPECT_GT(probes->value(), 0u);
}

TEST(RunReport, SameSeedRunsProduceIdenticalTraceAndMetrics) {
  // A WA<->PR partition gives the incident log something to hold.
  Scenario s = small_scenario();
  s.faults.partition_both_for(TimePoint::epoch() + s.warmup + seconds(1), s.replica_dcs[0],
                              s.replica_dcs[1], milliseconds(400));
  const RunResult a = run_domino(s);
  const RunResult b = run_domino(s);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_EQ(a.trace->total_recorded(), a.fault_transitions);
  EXPECT_EQ(a.trace->total_recorded(), b.trace->total_recorded());
  EXPECT_EQ(obs::trace_to_json(*a.trace), obs::trace_to_json(*b.trace));
  EXPECT_EQ(obs::metrics_to_json(*a.metrics), obs::metrics_to_json(*b.metrics));

  EXPECT_EQ(report_json(Protocol::kDomino, s, a, /*include_trace=*/true),
            report_json(Protocol::kDomino, s, b, /*include_trace=*/true));
}

/// Fig. 8c Globe setting: replicas WA/PR/NSW, one open-loop client per
/// datacenter at 200 req/s, a 14 s run.
Scenario fig8c_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  for (std::size_t dc = 0; dc < s.topology.size(); ++dc) s.client_dcs.push_back(dc);
  s.rps = 200;
  s.warmup = seconds(2);
  s.measure = seconds(10);
  s.cooldown = seconds(2);
  return s;
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(RunReport, FaultLaneIsCompleteAtDefaultSettings) {
  // Hundreds of thousands of messages flow around the partition; every one
  // of its four transitions must still reach the Chrome trace.
  Scenario s = fig8c_scenario();
  s.faults.partition_both_for(TimePoint::epoch() + s.warmup + milliseconds(2500),
                              s.topology.index_of("VA"), s.topology.index_of("PR"),
                              milliseconds(400));
  for (const Protocol p : {Protocol::kDomino, Protocol::kMultiPaxos}) {
    SCOPED_TRACE(protocol_name(p));
    const RunResult r = run_protocol(p, s);
    ASSERT_EQ(r.fault_transitions, 4u);
    const std::string json = obs::chrome_trace_json(r.spans.get(), r.trace.get());
    EXPECT_EQ(count_of(json, "\"cat\":\"fault\""), r.fault_transitions);
    EXPECT_EQ(count_of(json, "\"link_partition\""), 2u);
    EXPECT_EQ(count_of(json, "\"link_heal\""), 2u);
  }
}

TEST(RunReport, FaultFreeRunsRecordNoIncidents) {
  const Scenario s = small_scenario();
  for (const Protocol p : {Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
                           Protocol::kFastPaxos, Protocol::kDomino}) {
    SCOPED_TRACE(protocol_name(p));
    const RunResult r = run_protocol(p, s);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_EQ(r.trace->total_recorded(), 0u);
    EXPECT_GT(r.committed, 0u);
  }
}

TEST(RunReport, DisabledObservabilityYieldsNullRegistries) {
  Scenario s = small_scenario();
  s.observability = false;
  const RunResult r = run_domino(s);
  EXPECT_EQ(r.metrics, nullptr);
  EXPECT_EQ(r.trace, nullptr);
  EXPECT_GT(r.committed, 0u);  // the run itself still works
  // And the report degrades gracefully.
  const std::string json = report_json(Protocol::kDomino, s, r);
  EXPECT_NE(json.find("\"protocol\":\"Domino\""), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(RunReport, JsonCarriesLatencySummaryAndCounters) {
  const Scenario s = small_scenario();
  const RunResult r = run_domino(s);
  EXPECT_EQ(r.latency.committed, r.committed);  // collector is the source
  const std::string json = report_json(Protocol::kDomino, s, r);
  EXPECT_NE(json.find(",\n\"committed\":" + std::to_string(r.committed) + ","),
            std::string::npos);
  EXPECT_NE(json.find("\"commit_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"domino.dfp.fast_commits\""), std::string::npos);
  EXPECT_NE(json.find("net.link.WA->PR.delay_ns"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events\":0"), std::string::npos);  // fault-free
}

TEST(RunReport, BaselineProtocolCountersRegistered) {
  const Scenario s = small_scenario();
  const RunResult paxos = run_multipaxos(s);
  ASSERT_NE(paxos.metrics, nullptr);
  const auto* commits = paxos.metrics->find_counter("paxos.commits");
  ASSERT_NE(commits, nullptr);
  EXPECT_GT(commits->value(), 0u);

  const RunResult epaxos = run_epaxos(s);
  ASSERT_NE(epaxos.metrics, nullptr);
  const auto* fast = epaxos.metrics->find_counter("epaxos.fast_commits");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->value(), epaxos.fast_path);
}

}  // namespace
}  // namespace domino::harness

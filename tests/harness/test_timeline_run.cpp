// Integration tests of the windowed-telemetry sampler and steady-state
// detector on real simulated runs: off-by-default equivalence, flush
// conservation (window deltas sum to the lifetime totals), byte-identical
// same-seed timelines, and steady-state evaluation over a faulted run.
#include <gtest/gtest.h>

#include <fstream>

#include "harness/run_report.h"

namespace domino::harness {
namespace {

Scenario timeline_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 1, 2};
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  s.cooldown = seconds(1);
  s.seed = 23;
  s.timeseries_interval = milliseconds(200);
  return s;
}

Scenario faulted_scenario() {
  Scenario s = timeline_scenario();
  s.faults.crash_for(TimePoint::epoch() + milliseconds(1400), NodeId{1},
                     milliseconds(400));
  s.client_request_timeout = milliseconds(300);
  s.client_max_retries = 8;
  s.slo.steady_metric = "client.committed";
  s.slo.steady_tolerance = 0.5;
  s.slo.steady_windows = 2;
  return s;
}

TEST(TimelineRun, OffByDefaultLeavesExportsUntouched) {
  Scenario s = timeline_scenario();
  s.timeseries_interval = Duration::zero();
  const RunResult r = run_domino(s);
  EXPECT_EQ(r.timeseries, nullptr);
  EXPECT_TRUE(r.slo.steady.empty());
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_EQ(r.metrics->find_counter("slo.steady.reached"), nullptr);
  const std::string json = report_json(Protocol::kDomino, s, r);
  EXPECT_EQ(json.find("\"timeline\""), std::string::npos);
  EXPECT_EQ(json.find("\"slo\""), std::string::npos);
}

TEST(TimelineRun, SamplerDoesNotPerturbTheRun) {
  // The sampler only reads metrics, so enabling it must not change what
  // the protocol does.
  Scenario s = timeline_scenario();
  const RunResult sampled = run_domino(s);
  s.timeseries_interval = Duration::zero();
  const RunResult plain = run_domino(s);
  EXPECT_EQ(sampled.committed, plain.committed);
  EXPECT_EQ(sampled.packets_sent, plain.packets_sent);
  EXPECT_EQ(sampled.bytes_sent, plain.bytes_sent);
  EXPECT_EQ(sampled.fault_digest, plain.fault_digest);
  EXPECT_EQ(sampled.commit_ms.mean(), plain.commit_ms.mean());
  EXPECT_EQ(sampled.fast_path, plain.fast_path);
}

TEST(TimelineRun, WindowsTileTheRun) {
  const Scenario s = timeline_scenario();
  const RunResult r = run_domino(s);
  ASSERT_NE(r.timeseries, nullptr);
  const auto& windows = r.timeseries->windows();
  // 5s of virtual time at 200ms per window, plus the end-of-run flush
  // (skipped when it lands exactly on a tick).
  ASSERT_GE(windows.size(), 24u);
  ASSERT_LE(windows.size(), 26u);
  EXPECT_EQ(windows.front().start, TimePoint::epoch());
  EXPECT_EQ(windows.back().end,
            TimePoint::epoch() + s.warmup + s.measure + s.cooldown);
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start, windows[i - 1].end);  // gap-free tiling
  }
  EXPECT_EQ(r.timeseries->dropped_windows(), 0u);
}

TEST(TimelineRun, WindowDeltasSumToLifetimeTotals) {
  // Flush conservation: every recorded sample lands in exactly one window.
  const RunResult r = run_domino(timeline_scenario());
  ASSERT_NE(r.timeseries, nullptr);
  ASSERT_NE(r.metrics, nullptr);

  const auto* commits = r.timeseries->find_counter("client.committed");
  ASSERT_NE(commits, nullptr);
  std::uint64_t committed = 0;
  for (const std::uint64_t d : commits->deltas) committed += d;
  EXPECT_EQ(committed, r.metrics->find_counter("client.committed")->value());

  const auto* lat = r.timeseries->find_histogram("client.commit_latency_ns");
  ASSERT_NE(lat, nullptr);
  std::uint64_t samples = 0;
  for (const obs::WindowHistogram& w : lat->windows) samples += w.count;
  EXPECT_EQ(samples, r.metrics->find_histogram("client.commit_latency_ns")->count());
  EXPECT_GT(samples, 0u);
}

TEST(TimelineRun, SameSeedTimelineIsByteIdentical) {
  const Scenario s = faulted_scenario();
  const RunResult a = run_domino(s);
  const RunResult b = run_domino(s);
  ASSERT_NE(a.timeseries, nullptr);
  ASSERT_NE(b.timeseries, nullptr);
  EXPECT_EQ(obs::timeseries_to_csv(*a.timeseries), obs::timeseries_to_csv(*b.timeseries));
  EXPECT_EQ(report_json(Protocol::kDomino, s, a), report_json(Protocol::kDomino, s, b));
}

TEST(TimelineRun, SloEvaluatesRulesAndSteadyStateOverFaults) {
  const Scenario s = faulted_scenario();
  const RunResult r = run_domino(s);

  // One steady-state verdict per scheduled fault event (crash + recover).
  ASSERT_EQ(r.slo.steady.size(), 2u);
  EXPECT_EQ(r.slo.steady[0].fault.kind, "crash");
  EXPECT_EQ(r.slo.steady[1].fault.kind, "recover");
  for (const obs::SteadyStateResult& st : r.slo.steady) {
    EXPECT_GT(st.baseline, 0.0);
    ASSERT_TRUE(st.reached) << "throughput never re-settled after " << st.fault.kind;
    EXPECT_GT(st.time_to_steady, Duration::zero());
    // Settling is bounded by the evaluation horizon (end of load).
    EXPECT_LE(st.fault.at + st.time_to_steady, TimePoint::epoch() + s.warmup + s.measure);
  }

  // The verdicts are surfaced as slo.* metrics too.
  ASSERT_NE(r.metrics, nullptr);
  const auto* reached = r.metrics->find_counter("slo.steady.reached");
  ASSERT_NE(reached, nullptr);
  EXPECT_EQ(reached->value(), 2u);
}

TEST(TimelineRun, ReportCarriesTimelineAndSloBlocks) {
  const Scenario s = faulted_scenario();
  const RunResult r = run_domino(s);
  const std::string json = report_json(Protocol::kDomino, s, r);
  EXPECT_NE(json.find("\"timeline\":{\"interval_ms\":200.000"), std::string::npos);
  EXPECT_NE(json.find("\"slo\":{"), std::string::npos);
  EXPECT_NE(json.find("\"steady_state\":["), std::string::npos);
  EXPECT_NE(json.find("\"client.commit_latency_ns\":{\"kind\":\"histogram\""),
            std::string::npos);
}

TEST(TimelineRun, WritesSampleOutputsForTooling) {
  // scripts/check.sh --timeline smoke-feeds these to timeline_summary.py.
  const Scenario s = faulted_scenario();
  const RunResult r = run_domino(s);
  ASSERT_NE(r.timeseries, nullptr);
  const std::string timeline = obs::timeseries_to_csv(*r.timeseries);
  std::ofstream csv("timeline_sample.csv", std::ios::binary);
  ASSERT_TRUE(csv.good());
  csv << timeline;
  csv.close();
  std::ofstream json("timeline_sample.json", std::ios::binary);
  ASSERT_TRUE(json.good());
  json << report_json(Protocol::kDomino, s, r);
  json.close();
  EXPECT_GT(timeline.size(), 1000u);
}

}  // namespace
}  // namespace domino::harness

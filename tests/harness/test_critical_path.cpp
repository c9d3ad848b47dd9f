// End-to-end tests of causal command tracing on real protocol runs: the
// exact-sum acceptance property (every committed command's critical-path
// phase attributions sum exactly, in virtual time, to its end-to-end
// latency), Chrome trace JSON validity, byte-identical same-seed exports,
// and fault instants in the export.
#include <cctype>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/run_report.h"
#include "harness/runner.h"
#include "obs/chrome_trace.h"

namespace domino::harness {
namespace {

Scenario traced_scenario() {
  Scenario s;
  s.topology = net::Topology::globe();
  // 3-DC Domino deployment (Figure 8c replica placement).
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 2, 4};
  s.rps = 50;
  s.warmup = milliseconds(500);
  s.measure = seconds(2);
  s.cooldown = seconds(1);
  s.seed = 11;
  s.command_spans = true;
  return s;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (structure only, no object
// building) — enough to prove the Chrome trace export is well-formed.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

void check_exact_sum(const RunResult& r) {
  ASSERT_FALSE(r.critical_paths.empty());
  for (const obs::CommandPath& p : r.critical_paths) {
    Duration sum = Duration::zero();
    TimePoint cursor = p.submitted_at;
    for (const obs::PathSegment& seg : p.segments) {
      // Chronological, contiguous: each segment picks up where the previous
      // one ended, so the sum below cannot double-count or leave gaps.
      EXPECT_EQ(seg.begin, cursor);
      EXPECT_LT(seg.begin, seg.end);
      cursor = seg.end;
      sum += seg.duration();
    }
    EXPECT_EQ(cursor, p.committed_at);
    // The acceptance property: phase attributions sum EXACTLY (integer
    // virtual-time nanoseconds) to the command's end-to-end latency.
    EXPECT_EQ(sum.nanos(), p.total().nanos());
  }
}

TEST(CriticalPathRun, DominoPhasesSumExactlyToLatency) {
  const RunResult r = run_domino(traced_scenario());
  ASSERT_NE(r.spans, nullptr);
  EXPECT_EQ(r.spans->dropped_spans(), 0u);
  EXPECT_EQ(r.spans->dropped_edges(), 0u);
  // Every client-observed commit has a critical path.
  EXPECT_EQ(r.critical_paths.size(), r.client_committed);
  check_exact_sum(r);
  // The phase aggregation landed in the registry.
  EXPECT_EQ(r.metrics->counter("critpath.commands").value(), r.client_committed);
}

TEST(CriticalPathRun, EveryProtocolSumsExactly) {
  for (const Protocol p : {Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
                           Protocol::kFastPaxos}) {
    SCOPED_TRACE(protocol_name(p));
    const RunResult r = run_protocol(p, traced_scenario());
    check_exact_sum(r);
    EXPECT_EQ(r.critical_paths.size(), r.client_committed);
  }
}

TEST(CriticalPathRun, DominoFastPathShowsQuorumWait) {
  // On the globe topology remote Domino clients use DFP; the analyzer must
  // attribute their latency to propose transit + quorum wait.
  const RunResult r = run_domino(traced_scenario());
  const std::string csv = obs::paths_to_csv(r.critical_paths, "Domino");
  EXPECT_NE(csv.find(",dfp_propose_transit,"), std::string::npos);
  EXPECT_NE(csv.find(",dfp_quorum_wait,"), std::string::npos);
}

TEST(CriticalPathRun, ChromeTraceValidatesAndIsDeterministic) {
  const Scenario s = traced_scenario();
  const RunResult a = run_domino(s);
  const RunResult b = run_domino(s);

  const std::string json_a = obs::chrome_trace_json(a.spans.get(), a.trace.get());
  const std::string json_b = obs::chrome_trace_json(b.spans.get(), b.trace.get());
  EXPECT_FALSE(json_a.empty());
  EXPECT_TRUE(JsonChecker(json_a).valid());
  // Byte-identical across two same-seed runs.
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(obs::paths_to_csv(a.critical_paths, "Domino"),
            obs::paths_to_csv(b.critical_paths, "Domino"));

  // Spot checks: lanes, span events, flow bindings.
  EXPECT_NE(json_a.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json_a.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json_a.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json_a.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json_a.find("DfpPropose"), std::string::npos);

  // The JSON report carries the span accounting fields.
  const std::string report = report_json(Protocol::kDomino, s, a);
  EXPECT_NE(report.find("\"spans_recorded\":"), std::string::npos);
  EXPECT_NE(report.find("\"trace_events\":"), std::string::npos);
  EXPECT_EQ(report.find("\"trace_events_dropped\""), std::string::npos);
  EXPECT_NE(report.find("\"critical_paths\":"), std::string::npos);
}

TEST(CriticalPathRun, FaultEventsAppearAsInstants) {
  // The DM-leader-crash scenario from the chaos suite, with spans on:
  // timed-out requests fail over, and the crash/recover pair shows up as
  // instant events in the Chrome trace.
  Scenario s = traced_scenario();
  s.domino_mode = core::ClientConfig::Mode::kDmOnly;
  s.client_request_timeout = milliseconds(800);
  const std::size_t leader = closest_replica(s.topology, s.replica_dcs, s.client_dcs[0]);
  s.faults.crash_for(TimePoint::epoch() + s.warmup + milliseconds(800),
                     NodeId{static_cast<std::uint32_t>(leader)}, milliseconds(800));
  const RunResult r = run_domino(s);
  const std::string json = obs::chrome_trace_json(r.spans.get(), r.trace.get());
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"node_crash\""), std::string::npos);
  EXPECT_NE(json.find("\"node_recover\""), std::string::npos);
  // Traced runs survive chaos with the exact-sum property intact.
  check_exact_sum(run_domino(s));
}

TEST(CriticalPathRun, DisabledSpansLeaveWireUntouched) {
  // Spans change the envelope (context bytes); with command_spans off the
  // traffic totals must match a plain observability run exactly.
  Scenario s = traced_scenario();
  s.command_spans = false;
  const RunResult plain = run_domino(s);
  EXPECT_EQ(plain.spans, nullptr);
  EXPECT_TRUE(plain.critical_paths.empty());

  Scenario again = traced_scenario();
  again.command_spans = false;
  const RunResult repeat = run_domino(again);
  EXPECT_EQ(plain.bytes_sent, repeat.bytes_sent);
  EXPECT_EQ(plain.packets_sent, repeat.packets_sent);
}

TEST(CriticalPathRun, WritesSampleCsvForTooling) {
  // scripts/check.sh --trace smoke-feeds this file to trace_summary.py.
  const RunResult r = run_domino(traced_scenario());
  const std::string csv = obs::paths_to_csv(r.critical_paths, "Domino");
  std::ofstream out("critical_path_sample.csv", std::ios::binary);
  ASSERT_TRUE(out.good());
  out << csv;
  out.close();
  EXPECT_GT(csv.size(), 100u);
}

}  // namespace
}  // namespace domino::harness

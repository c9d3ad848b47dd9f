// Self-tests of the benchmark's layer replays and helpers. Each replay
// checks its own output against a reference; these tests run every replay
// on small inputs and require the check to pass, and confirm the helpers
// the metrics rest on (quartiles, span self time) against known answers.
//
//   perfbench_selftest [repo root]      exit 0 = all passed
#include <cstdio>
#include <string>
#include <vector>

#include "layers.h"
#include "report.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void expect_clean(const std::string& error, const std::string& what) {
  expect(error.empty(), what + (error.empty() ? "" : ": " + error));
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

}  // namespace

int main(int argc, char** argv) {
  using namespace domino;
  using namespace perfbench;
  const std::string root = argc > 1 ? argv[1] : ".";

  // Quartiles match Python's statistics.quantiles(v, n=4) (exclusive).
  const Spread s = spread_of({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(s.q1, 2.75) && near(s.median, 5.5) && near(s.q3, 8.25), "spread_of quartiles");
  const Spread odd = spread_of({3, 1, 2});
  expect(near(odd.median, 2) && near(odd.q1, 1) && near(odd.q3, 3), "spread_of small sample");

  // Self time is a span minus its children.
  SpanRecorder spans(true);
  spans.begin("outer");
  spans.begin("inner");
  spans.end();
  spans.end();
  const auto& outer = spans.totals("outer");
  const auto& inner = spans.totals("inner");
  expect(outer.count == 1 && inner.count == 1, "span counts");
  expect(outer.self_ns == outer.total_ns - inner.total_ns, "span self time excludes children");

  const sm::WorkloadConfig config;
  const std::vector<sm::Command> commands = sample_commands(config, 64, 7);
  for (const wire::MessageType t : codec_types()) {
    const CodecTimed c = replay_codec(t, commands, 500);
    expect_clean(c.error, std::string("codec round trip ") + wire::message_type_name(t));
    expect(c.bytes_per_msg > 2, std::string("codec bytes ") + wire::message_type_name(t));
  }
  expect_clean(replay_sim_events(100, 5'000, 7).error, "simulator runs events in order");
  const net::Topology globe = net::Topology::globe();
  expect_clean(replay_net_send(globe, {1, 2, 3, 0, 4, 5}, net::JitterParams{}, 20'000, 7).error,
               "network per-channel FIFO delivery");
  expect_clean(replay_window_estimator(100, milliseconds(10), 95.0, 2'000, 7).error,
               "estimator percentile matches sorted reference");
  expect_clean(replay_window_estimator(100, milliseconds(10), 50.0, 2'000, 8).error,
               "estimator median matches sorted reference");
  sm::WorkloadConfig small;
  small.num_keys = 1000;
  expect_clean(replay_workload(small, 2, 10'000, 7).error, "workload generator determinism");
  expect_clean(replay_wan(root + "/bench/traces/globe_va.csv", 1, 20'000, 7).error,
               "empirical latency stays within the trace range");

  // The shared replay runs only the layers a workload has.
  Report report;
  ReplayInputs bare;
  bare.workload = small;
  replay_layers(report, spans, bare);
  const auto& layers = report.layers();
  expect(report.correct() && layers.count("measure.add_ns") == 1 &&
             layers.count("statemachine.next_ns") == 1 && layers.count("wire.encode_ns") == 1,
         "replay_layers reports the layers every workload has");
  expect(layers.count("sim.event_ns") == 0 && layers.count("net.send_ns") == 0 &&
             layers.count("wan.sample_ns") == 0,
         "replay_layers leaves out sim, net and wan when the workload has none");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASSED" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

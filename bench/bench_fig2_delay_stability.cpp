// Figure 2: distribution of measured delays from VA to WA over one minute,
// in one-second boxes overlapping by half a second (whiskers = p5/p95).
// Demonstrates: "the variance of the network roundtrip delays is small
// during a short period of time".
//
// The boxes replay the checked-in stationary fixture trace
// (bench/traces/globe_va.csv); a second pass over the drifting fixture
// (bench/traces/va_wa_drift.csv) shows the same statistic in the regime
// where the paper's stability claim is deliberately broken. A short
// trace-driven Globe run closes the bench with a schema-v2 JSON report.
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "wan/delay_trace.h"

namespace {

using namespace domino;

// Print the fig2 overlapping-box summary of the VA<->WA RTT replayed from
// `trace` over [0, duration), boxes of 1 s overlapping by 0.5 s. Returns the
// overall p5-p95 spread in ms.
double print_boxes(const wan::DelayTrace& trace, Duration duration) {
  const auto fwd = trace.samples("VA", "WA");
  const auto rev = trace.samples("WA", "VA");
  if (fwd == nullptr || rev == nullptr || fwd->size() != rev->size()) {
    std::printf("  fixture is missing the VA<->WA pair\n");
    return -1.0;
  }
  std::printf("  window        p5     p25     p50     p75     p95\n");
  const int halves = static_cast<int>(duration.millis() / 500.0) - 1;
  StatAccumulator all;
  for (int half = 0; half < halves; ++half) {
    const TimePoint lo = TimePoint::epoch() + milliseconds(500) * half;
    const TimePoint hi = lo + seconds(1);
    StatAccumulator box;
    for (std::size_t i = 0; i < fwd->size(); ++i) {
      const TimePoint at = (*fwd)[i].at;
      if (at < lo || at >= hi) continue;
      box.add((*fwd)[i].owd + (*rev)[i].owd);
    }
    if (box.empty()) continue;
    if (half % 10 == 0) {  // print every 5 s to keep output readable
      const auto b = box.box_summary();
      std::printf("  [%4.1fs,%4.1fs) %6.2f %7.2f %7.2f %7.2f %7.2f\n", lo.seconds(),
                  hi.seconds(), b.p5, b.p25, b.p50, b.p75, b.p95);
    }
  }
  for (std::size_t i = 0; i < fwd->size(); ++i) {
    if ((*fwd)[i].at - TimePoint::epoch() >= duration) break;
    all.add((*fwd)[i].owd + (*rev)[i].owd);
  }
  return all.percentile(95) - all.percentile(5);
}

}  // namespace

int main() {
  using namespace domino;
  bench::print_header("Short-timescale delay stability, VA -> WA",
                      "paper Figure 2, Section 3");

  const std::string trace_dir = DOMINO_TRACE_DIR;
  const auto stationary = std::make_shared<wan::DelayTrace>(
      wan::DelayTrace::load(trace_dir + "/globe_va.csv"));
  const wan::DelayTrace drifting = wan::DelayTrace::load(trace_dir + "/va_wa_drift.csv");

  std::printf("1 s boxes, 0.5 s overlap; values in ms (whiskers p5/p95).\n");
  std::printf("Paper: boxes span roughly 64.8-65.8 ms one-way on a 65 ms-ish link;\n");
  std::printf("here the equivalent RTT boxes sit just above the 67 ms floor.\n");

  std::printf("\nstationary fixture (globe_va.csv), first minute:\n");
  const double stable_spread = print_boxes(*stationary, seconds(60));
  std::printf("\n  overall p5-p95 spread: %.2f ms (floor %.0f ms) -> "
              "short-window variance is small: %s\n",
              stable_spread, 67.0, stable_spread >= 0 && stable_spread < 3.0 ? "yes" : "NO");

  std::printf("\ndrifting fixture (va_wa_drift.csv), first minute "
              "(route flaps + congestion epochs):\n");
  const double drift_spread = print_boxes(drifting, seconds(60));
  std::printf("\n  overall p5-p95 spread: %.2f ms -> the stability claim breaks "
              "under drift: %s\n",
              drift_spread, drift_spread > stable_spread * 2.0 ? "yes" : "NO");

  // Trace-driven commit-latency run over the stationary fixture.
  harness::Scenario s = bench::globe_scenario();
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = milliseconds(500);
  s.seed = 13;
  s.wan_trace = stationary;
  const int reps = 1;
  const auto dom = bench::run_repeated(harness::Protocol::kDomino, s, reps);
  const auto fp = bench::run_repeated(harness::Protocol::kFastPaxos, s, reps);
  std::printf("\ntrace-replay Globe run (VA links empirical):\n");
  std::printf("%s\n", harness::summary_line("Domino", dom.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Fast Paxos", fp.commit_ms).c_str());
  bench::emit_json_report("fig2_report.json", "Figure 2 trace replay", s, reps,
                          {{"Domino", &dom}, {"Fast-Paxos", &fp}});
  return 0;
}

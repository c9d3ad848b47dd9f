// Figure 1: network roundtrip delays from VA to WA, PR and NSW over a long
// probing run. The paper plots per-minute histograms of a 24 h trace; we
// replay the checked-in empirical fixture trace (bench/traces/globe_va.csv,
// generated by wan_tracegen in the stationary regime) and print per-minute
// delay bands, showing the paper's key observation: "the variance of the
// network roundtrip delay is relatively small compared to the minimum
// measured delay".
//
// A short trace-driven Globe deployment then commits real requests over
// the same replayed links (wan::EmpiricalLatency) and emits a schema-v2
// bench JSON so scripts/bench_compare.py can gate this bench too.
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "wan/delay_trace.h"

int main() {
  using namespace domino;
  bench::print_header("Network roundtrip delay traces from VA",
                      "paper Figure 1, Section 3");

  const auto trace = std::make_shared<wan::DelayTrace>(
      wan::DelayTrace::load(std::string(DOMINO_TRACE_DIR) + "/globe_va.csv"));

  struct Target {
    const char* name;
    double paper_band_lo;  // the y-axis band the paper's plot occupies
    double paper_band_hi;
  };
  const Target targets[] = {
      {"WA", 63, 75},    // Figure 1(a)
      {"PR", 78, 90},    // Figure 1(b)
      {"NSW", 194, 206}  // Figure 1(c)
  };

  const net::Topology topo = net::Topology::globe();
  for (const Target& t : targets) {
    const auto fwd = trace->samples("VA", t.name);
    const auto rev = trace->samples(t.name, "VA");
    if (fwd == nullptr || rev == nullptr || fwd->size() != rev->size()) {
      std::printf("fixture is missing the VA<->%s pair\n", t.name);
      return 1;
    }
    const double rtt_ms = topo.rtt(topo.index_of("VA"), topo.index_of(t.name)).millis();
    // Forward and reverse samples share timestamps by construction, so the
    // replayed RTT trace is their element-wise sum.
    TimeSeries per_minute(seconds(60));
    StatAccumulator all;
    for (std::size_t i = 0; i < fwd->size(); ++i) {
      const Duration rtt = (*fwd)[i].owd + (*rev)[i].owd;
      per_minute.add((*fwd)[i].at, rtt);
      all.add(rtt);
    }

    std::printf("\nVA -> %s (nominal %.0f ms; paper band %.0f-%.0f ms)\n", t.name, rtt_ms,
                t.paper_band_lo, t.paper_band_hi);
    std::printf("  min   p5      p50     p95     p99     max    (per minute)\n");
    for (std::size_t m = 0; m < per_minute.bucket_count(); ++m) {
      const auto& b = per_minute.bucket(m);
      if (b.empty()) continue;
      std::printf("  %-5zu %-7.1f %-7.1f %-7.1f %-7.1f %-7.1f\n", m, b.percentile(5),
                  b.percentile(50), b.percentile(95), b.percentile(99), b.max());
    }
    std::printf("  overall: min=%.1f p50=%.1f p99=%.1f  "
                "(variance small vs the %.0f ms propagation floor: %s)\n",
                all.min(), all.percentile(50), all.percentile(99), rtt_ms,
                all.percentile(99) < rtt_ms * 1.15 ? "yes" : "NO");
  }

  // Trace-driven commit-latency run: the VA links replay the fixture's
  // empirical distributions, every other link keeps the synthetic default.
  harness::Scenario s = bench::globe_scenario();
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = milliseconds(500);
  s.seed = 11;
  s.wan_trace = trace;
  const int reps = 1;
  const auto dom = bench::run_repeated(harness::Protocol::kDomino, s, reps);
  const auto men = bench::run_repeated(harness::Protocol::kMencius, s, reps);
  std::printf("\ntrace-replay Globe run (VA links empirical):\n");
  std::printf("%s\n", harness::summary_line("Domino", dom.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Mencius", men.commit_ms).c_str());
  bench::emit_json_report("fig1_report.json", "Figure 1 trace replay", s, reps,
                          {{"Domino", &dom}, {"Mencius", &men}});
  return 0;
}

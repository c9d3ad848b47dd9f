// Regression gate: one compact, fully deterministic run of all five
// protocols on the Globe setting, emitted as a schema-v2 bench JSON
// (BENCH_gate.json by default, or argv[1]). scripts/check.sh
// --bench-baseline records this file as scripts/baselines/BENCH_gate.json
// and scripts/bench_compare.py diffs a fresh run against the recorded
// baseline with tolerance bands — a latency or throughput regression in any
// protocol fails the gate.
//
// Everything here is seeded and virtual-time, so a same-toolchain rerun
// reproduces the baseline byte-for-byte; the compare tolerances exist for
// intentional protocol changes, not for run-to-run noise.
#include <cstdio>

#include "bench_util.h"
#include "wan/delay_trace.h"

int main(int argc, char** argv) {
  using namespace domino;
  const char* out = argc > 1 ? argv[1] : "BENCH_gate.json";
  bench::print_header("Regression gate: all protocols, Globe, one seed",
                      "scripts/check.sh --bench-baseline");

  harness::Scenario s = bench::globe_scenario();
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = milliseconds(500);
  s.seed = 7;
  const int reps = 1;

  const auto mp = bench::run_repeated(harness::Protocol::kMultiPaxos, s, reps);
  const auto men = bench::run_repeated(harness::Protocol::kMencius, s, reps);
  const auto epx = bench::run_repeated(harness::Protocol::kEPaxos, s, reps);
  const auto fp = bench::run_repeated(harness::Protocol::kFastPaxos, s, reps);
  const auto dom = bench::run_repeated(harness::Protocol::kDomino, s, reps);

  // Same scenario with the VA links replaying the checked-in fixture trace:
  // gates the whole trace-ingestion + empirical-replay path (wan::) against
  // latency drift, not just the synthetic jitter models.
  harness::Scenario st = s;
  st.wan_trace = std::make_shared<wan::DelayTrace>(
      wan::DelayTrace::load(std::string(DOMINO_TRACE_DIR) + "/globe_va.csv"));
  const auto dom_trace = bench::run_repeated(harness::Protocol::kDomino, st, reps);

  std::printf("%s\n", harness::summary_line("Multi-Paxos", mp.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Mencius", men.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("EPaxos", epx.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Fast Paxos", fp.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Domino", dom.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Domino/trace", dom_trace.commit_ms).c_str());

  bench::emit_json_report(out, "Regression gate", s, reps,
                          {{"Multi-Paxos", &mp},
                           {"Mencius", &men},
                           {"EPaxos", &epx},
                           {"Fast-Paxos", &fp},
                           {"Domino", &dom},
                           {"Domino-trace", &dom_trace}});
  return 0;
}

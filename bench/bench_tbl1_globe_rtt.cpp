// Table 1: network roundtrip delays (ms) between the 6 Globe datacenters.
// Verifies that probing the simulated WAN reproduces the configured matrix
// (the paper's measured averages).
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "wan/delay_trace.h"
#include "wan/empirical.h"

namespace {

using namespace domino;

void measure_matrix(const net::Topology& topo, const char* paper_ref) {
  sim::Simulator simulator;
  net::Network network(simulator, topo, 42);
  net::JitterParams jitter;
  network.use_default_links(jitter);
  const auto nodes = bench::probe_all_datacenters(network);

  std::printf("%s — median measured RTT (ms); configured value in ()\n\n      ", paper_ref);
  for (std::size_t j = 0; j < topo.size(); ++j) std::printf("%12s", topo.name(j).c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < topo.size(); ++i) {
    std::printf("%-5s ", topo.name(i).c_str());
    for (std::size_t j = 0; j < topo.size(); ++j) {
      if (i == j) {
        std::printf("%12s", "-");
        continue;
      }
      const Duration measured = nodes[i]->prober.rtt_estimate(nodes[j]->id(), 50.0);
      char cell[48];
      std::snprintf(cell, sizeof(cell), "%.0f (%.0f)", measured.millis(),
                    topo.rtt(i, j).millis());
      std::printf("%12s", cell);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

// Re-probe the VA row with the VA links replaying the checked-in fixture
// trace: the probed medians must now track the trace's own medians (sum of
// the per-direction OWD medians), not the configured matrix.
void measure_va_row_traced(const net::Topology& topo, const wan::DelayTrace& trace) {
  sim::Simulator simulator;
  net::Network network(simulator, topo, 42);
  net::JitterParams jitter;
  network.use_default_links(jitter);
  const std::size_t replayed = wan::apply_trace(trace, network, {});
  const auto nodes = bench::probe_all_datacenters(network);

  std::printf("VA row, links replaying bench/traces/globe_va.csv (%zu directed links):\n\n",
              replayed);
  std::printf("  pair      probed p50   trace p50   configured\n");
  const std::size_t va = topo.index_of("VA");
  for (std::size_t j = 0; j < topo.size(); ++j) {
    const auto fwd = trace.samples("VA", topo.name(j));
    const auto rev = trace.samples(topo.name(j), "VA");
    if (fwd == nullptr || rev == nullptr) continue;
    StatAccumulator f, r;
    for (const auto& s : *fwd) f.add(s.owd.millis());
    for (const auto& s : *rev) r.add(s.owd.millis());
    const double trace_p50 = f.percentile(50) + r.percentile(50);
    const double probed = nodes[va]->prober.rtt_estimate(nodes[j]->id(), 50.0).millis();
    std::printf("  VA<->%-4s %10.1f %11.1f %12.0f   tracks trace: %s\n",
                topo.name(j).c_str(), probed, trace_p50, topo.rtt(va, j).millis(),
                std::abs(probed - trace_p50) < trace_p50 * 0.05 ? "yes" : "NO");
  }
}

}  // namespace

int main() {
  using namespace domino;
  bench::print_header("Inter-datacenter RTT matrix — Globe",
                      "paper Table 1, Section 4");
  const net::Topology topo = net::Topology::globe();
  measure_matrix(topo, "Globe (6 DCs)");
  const wan::DelayTrace trace =
      wan::DelayTrace::load(std::string(DOMINO_TRACE_DIR) + "/globe_va.csv");
  measure_va_row_traced(topo, trace);
  return 0;
}

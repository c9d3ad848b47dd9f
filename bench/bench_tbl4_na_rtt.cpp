// Table 4: network roundtrip delays (ms) between the 9 North America
// datacenters, verified by probing the simulated WAN.
//
// The second half generates stationary WAN delay traces in memory (one per
// directed VA link, wan::TraceGenerator), replays them over the NA
// topology, and probes the VA row: the measured medians must track the
// generated traces rather than the configured matrix — the same
// trace-ingestion path the harness uses, with no fixture files involved.
#include <cstdio>

#include "bench_util.h"
#include "net/topology.h"
#include "wan/empirical.h"
#include "wan/generator.h"

int main() {
  using namespace domino;
  bench::print_header("Inter-datacenter RTT matrix — North America",
                      "paper Table 4, Section 7.2");
  const net::Topology topo = net::Topology::north_america();
  std::printf("Configured RTTs (ms), upper triangle as printed in the paper:\n\n      ");
  for (std::size_t j = 1; j < topo.size(); ++j) std::printf("%6s", topo.name(j).c_str());
  std::printf("\n");
  for (std::size_t i = 0; i + 1 < topo.size(); ++i) {
    std::printf("%-5s ", topo.name(i).c_str());
    for (std::size_t j = 1; j < topo.size(); ++j) {
      if (j <= i) {
        std::printf("%6s", "-");
      } else {
        std::printf("%6.0f", topo.rtt(i, j).millis());
      }
    }
    std::printf("\n");
  }
  std::printf("\nPaper Table 4 row VA: 27 59 31 67 46 26 38 29 — matches the first row.\n");

  // Probe the VA row over generated in-memory traces: each VA link replays
  // a stationary trace whose base is the Table 4 RTT split 0.55/0.45 over
  // the two directions, so the probed median should recover ~the RTT.
  wan::DelayTrace generated;
  const std::size_t va = topo.index_of("VA");
  std::uint64_t seed = 9000;
  for (std::size_t j = 0; j < topo.size(); ++j) {
    if (j == va) continue;
    const Duration rtt = topo.rtt(va, j);
    for (const bool forward : {true, false}) {
      wan::GeneratorConfig cfg =
          wan::stationary_config(scale(rtt, forward ? 0.55 : 0.45), seed++);
      cfg.duration = seconds(6);
      cfg.sample_interval = milliseconds(20);
      wan::TraceGenerator(cfg).generate_into(generated, forward ? "VA" : topo.name(j),
                                             forward ? topo.name(j) : "VA");
    }
  }

  sim::Simulator simulator;
  net::Network network(simulator, topo, 42);
  net::JitterParams jitter;
  network.use_default_links(jitter);
  const std::size_t replayed = wan::apply_trace(generated, network, {});
  const auto nodes = bench::probe_all_datacenters(network);

  std::printf("\nVA row probed over generated in-memory traces "
              "(%zu directed links replayed):\n\n  pair      probed p50   configured\n",
              replayed);
  bool ok = true;
  for (std::size_t j = 0; j < topo.size(); ++j) {
    if (j == va) continue;
    const double probed = nodes[va]->prober.rtt_estimate(nodes[j]->id(), 50.0).millis();
    const double configured = topo.rtt(va, j).millis();
    const bool close = probed > configured * 0.95 && probed < configured * 1.15;
    ok = ok && close;
    std::printf("  VA<->%-4s %10.1f %12.0f\n", topo.name(j).c_str(), probed, configured);
  }
  std::printf("\nprobed medians recover the generated traces' bases: %s\n",
              ok ? "yes" : "NO");
  return 0;
}

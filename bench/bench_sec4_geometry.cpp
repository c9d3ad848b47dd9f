// Section 4 analysis + Figure 4: how often Fast Paxos has lower idealized
// commit latency than Mencius and Multi-Paxos across all replica/client
// placements on the Globe RTT matrix (paper: 32.5% and 70.8%).
//
// Exits 1 unless Figure 4's worked example gives exactly the paper's
// Multi-Paxos 30 ms and Fast Paxos 35 ms.
#include <cstdio>

#include "bench_util.h"
#include "harness/geometry.h"
#include "measure/estimator.h"

int main() {
  using namespace domino;
  bench::print_header("Impact of network geometry", "paper Section 4 and Figure 4");

  // Figure 4's worked example.
  net::Topology example{{"Client", "R1", "R2", "R3"},
                        {{0, 10, 20, 35}, {10, 0, 20, 25}, {20, 20, 0, 30},
                         {35, 25, 30, 0}}};
  const std::vector<std::size_t> reps = {1, 2, 3};
  const harness::TopologyView client{example, reps, 0};
  const NodeId leader = client.replicas()[0];
  const Duration multi_paxos =
      client.rtt_estimate(leader) + client.replication_latency_of(leader);
  const Duration fast_paxos = measure::estimate_dfp_latency(client, client.replicas());
  std::printf("Figure 4 example: Multi-Paxos %.0f ms vs Fast Paxos %.0f ms "
              "(paper: 30 vs 35)\n\n",
              multi_paxos.millis(), fast_paxos.millis());
  const bool figure4_holds =
      multi_paxos == milliseconds(30) && fast_paxos == milliseconds(35);

  const auto summary = harness::analyze_geometry(net::Topology::globe(), 3);
  std::printf("Globe matrix, 3 replicas, all %zu (placement, client, leader) cases:\n",
              summary.cases.size());
  std::printf("  Fast Paxos beats Mencius    : %5.1f%%   (paper: 32.5%%)\n",
              summary.fp_beats_mencius * 100);
  std::printf("  Fast Paxos beats Multi-Paxos: %5.1f%%   (paper: 70.8%%)\n",
              summary.fp_beats_multipaxos * 100);

  // Extension: the same analysis on the North America matrix and with 5
  // replicas, showing how geometry shifts the balance.
  const auto na3 = harness::analyze_geometry(net::Topology::north_america(), 3);
  const auto globe5 = harness::analyze_geometry(net::Topology::globe(), 5);
  std::printf("\nExtensions (not in the paper):\n");
  std::printf("  NA matrix, 3 replicas : FP beats Mencius %.1f%%, Multi-Paxos %.1f%%\n",
              na3.fp_beats_mencius * 100, na3.fp_beats_multipaxos * 100);
  std::printf("  Globe matrix, 5 replicas: FP beats Mencius %.1f%%, Multi-Paxos %.1f%%\n",
              globe5.fp_beats_mencius * 100, globe5.fp_beats_multipaxos * 100);
  if (!figure4_holds) std::fprintf(stderr, "FAILED: Figure 4 example is not 30 vs 35 ms\n");
  return figure4_holds ? 0 : 1;
}

// Example: explore, for every client location in a topology, which Domino
// subsystem (DFP or DM) wins and what commit latency to expect — the
// Section 5.6 decision, computed analytically from the RTT matrix and then
// checked against a live simulated deployment.
//
// Usage: latency_explorer [globe|na]
#include <cstdio>
#include <cstring>

#include "harness/geometry.h"
#include "harness/runner.h"
#include "measure/estimator.h"

int main(int argc, char** argv) {
  using namespace domino;

  const bool use_na = argc > 1 && std::strcmp(argv[1], "na") == 0;
  const net::Topology topo =
      use_na ? net::Topology::north_america() : net::Topology::globe();
  std::vector<std::size_t> replica_dcs;
  if (use_na) {
    replica_dcs = {topo.index_of("WA"), topo.index_of("VA"), topo.index_of("QC")};
  } else {
    replica_dcs = {topo.index_of("WA"), topo.index_of("PR"), topo.index_of("NSW")};
  }

  std::printf("Replicas:");
  for (std::size_t dc : replica_dcs) std::printf(" %s", topo.name(dc).c_str());
  std::printf("\n\nAnalytical prediction (Section 5.6 estimates over the RTT matrix):\n");
  std::printf("  client   LatDFP(ms)  LatDM(ms)  choice\n");
  for (std::size_t client = 0; client < topo.size(); ++client) {
    const harness::TopologyView view{topo, replica_dcs, client};
    const Duration dfp = measure::estimate_dfp_latency(view, view.replicas());
    const Duration dm = measure::estimate_dm_latency(view, view.replicas()).latency;
    std::printf("  %-8s %10.0f %10.0f  %s\n", topo.name(client).c_str(), dfp.millis(),
                dm.millis(), dfp <= dm ? "DFP" : "DM");
  }

  std::printf("\nLive check (simulated deployment, one client per DC):\n");
  harness::Scenario s;
  s.topology = topo;
  s.replica_dcs = replica_dcs;
  for (std::size_t dc = 0; dc < topo.size(); ++dc) s.client_dcs.push_back(dc);
  s.rps = 50;
  s.warmup = seconds(2);
  s.measure = seconds(8);
  s.seed = 3;
  const auto result = harness::run_domino(s);
  for (std::size_t c = 0; c < result.commit_per_client.size(); ++c) {
    const auto& stats = result.commit_per_client[c];
    if (stats.empty()) continue;
    std::printf("  client %-8s median commit %.0f ms\n", topo.name(s.client_dcs[c]).c_str(),
                stats.percentile(50));
  }
  std::printf("\n%llu requests via DFP, %llu via DM; %llu fast-path commits\n",
              (unsigned long long)result.dfp_chosen, (unsigned long long)result.dm_chosen,
              (unsigned long long)result.fast_path);
  return 0;
}

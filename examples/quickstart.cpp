// Quickstart: replicate a key-value store with Domino across three global
// datacenters and compare its commit latency against Multi-Paxos.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "harness/report.h"
#include "harness/run_report.h"
#include "harness/runner.h"
#include "obs/json.h"

int main() {
  using namespace domino;

  // The paper's Globe setting (Table 1): replicas in WA, PR and NSW; one
  // client in every datacenter; WA hosts the Multi-Paxos leader and the
  // DFP coordinator.
  harness::Scenario scenario;
  scenario.topology = net::Topology::globe();
  scenario.replica_dcs = {scenario.topology.index_of("WA"),
                          scenario.topology.index_of("PR"),
                          scenario.topology.index_of("NSW")};
  scenario.client_dcs = {0, 1, 2, 3, 4, 5};  // VA WA PR NSW SG HK
  scenario.leader_index = 0;
  scenario.rps = 200;
  scenario.warmup = seconds(2);
  scenario.measure = seconds(10);
  scenario.seed = 42;

  std::printf("Replicating a KV store across WA / PR / NSW, clients in 6 DCs...\n\n");

  const auto domino_result = harness::run_domino(scenario);
  const auto paxos_result = harness::run_multipaxos(scenario);

  std::printf("%s\n", harness::summary_line("Domino", domino_result.commit_ms).c_str());
  std::printf("%s\n", harness::summary_line("Multi-Paxos", paxos_result.commit_ms).c_str());
  std::printf(
      "\nDomino: %llu requests committed (%llu via DFP fast path, %llu slow, "
      "%llu DFP-chosen, %llu DM-chosen)\n",
      static_cast<unsigned long long>(domino_result.committed),
      static_cast<unsigned long long>(domino_result.fast_path),
      static_cast<unsigned long long>(domino_result.slow_path),
      static_cast<unsigned long long>(domino_result.dfp_chosen),
      static_cast<unsigned long long>(domino_result.dm_chosen));

  // Full observability report: latency summary, every metric (per-link
  // delivery histograms, protocol counters), and the incident log (fault,
  // retry and recovery events; empty here, as this run injects no faults).
  obs::write_file("quickstart_report.json",
                  harness::report_json(harness::Protocol::kDomino, scenario, domino_result,
                                       /*include_trace=*/true));
  std::printf("\n[run report written to quickstart_report.json]\n");
  return 0;
}

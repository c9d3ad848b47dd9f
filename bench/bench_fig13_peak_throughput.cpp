// Figure 13: peak commit throughput with 3 replicas in a private cluster
// (paper: Domino ~65K, EPaxos ~57K, Mencius ~56K, Multi-Paxos ~36K rps).
//
// Substitution: the cluster is modelled as three "machine" datacenters with
// 0.2 ms RTTs, a per-message CPU service time at each replica, and 1 Gbps
// egress. Clients are spread evenly across the machines. We sweep the
// offered load and report the saturated commit rate per protocol.
//
// Expected shape: Multi-Paxos saturates first (every request funnels
// through the leader); Mencius, EPaxos and Domino spread load across
// replicas and peak 1.4-1.8x higher. (The paper's extra Domino edge over
// Mencius comes from I/O-compute pipelining in their Go implementation, an
// implementation property outside this model — see EXPERIMENTS.md.)
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace {

using namespace domino;

harness::Scenario cluster_scenario(double total_rps) {
  harness::Scenario s;
  s.topology = net::Topology{
      {"m1", "m2", "m3"},
      {{0, 0.2, 0.2}, {0.2, 0, 0.2}, {0.2, 0.2, 0}},
      microseconds(100)};
  s.replica_dcs = {0, 1, 2};
  s.leader_index = 0;
  const std::size_t clients = 24;
  for (std::size_t c = 0; c < clients; ++c) s.client_dcs.push_back(c % 3);
  s.rps = total_rps / static_cast<double>(clients);
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = seconds(1);
  s.seed = 17;
  s.jitter.spike_prob = 0;
  s.jitter.jitter_mu_ms = -4.0;  // LAN microsecond jitter
  s.replica_service_time = microseconds(9);  // per-message CPU cost
  s.node_egress_bps = 1e9;                   // 1 Gbps NICs
  s.clock_offset_stddev = microseconds(100);
  // Throughput runs use the lean learner mode: the Section 5.7 broadcast
  // optimization trades O(n^2) messages for latency, the wrong trade when
  // the replicas' CPUs are the bottleneck.
  s.domino_all_learners = false;
  // On a LAN, LatDFP and LatDM estimates tie to within measurement noise;
  // cluster clients co-located with replicas use DM (as in the paper's
  // private-cluster deployment), which spreads load across all leaders —
  // DFP would funnel learning through the coordinator.
  s.domino_mode = core::ClientConfig::Mode::kDmOnly;
  return s;
}

double peak_throughput(harness::Protocol protocol) {
  double best = 0;
  for (double offered : {20e3, 35e3, 45e3, 55e3, 65e3, 80e3}) {
    const auto r = harness::run_protocol(protocol, cluster_scenario(offered));
    const double rate = r.throughput_rps();
    if (rate < best * 0.85) break;  // well past saturation; goodput collapsing
    best = std::max(best, rate);
  }
  return best;
}

}  // namespace

int main() {
  using namespace domino;
  bench::print_header("Peak throughput with 3 replicas",
                      "paper Figure 13, Section 7.4");

  struct Row {
    harness::Protocol protocol;
    double paper_krps;
  };
  const Row rows[] = {{harness::Protocol::kDomino, 65},
                      {harness::Protocol::kMencius, 56},
                      {harness::Protocol::kEPaxos, 57},
                      {harness::Protocol::kMultiPaxos, 36}};

  double mp_peak = 0, best_multi_leader = 0;
  std::vector<std::pair<harness::Protocol, double>> multi_leader;
  std::printf("  protocol       peak (K req/s)   paper (K req/s)\n");
  for (const Row& row : rows) {
    const double peak = peak_throughput(row.protocol);
    std::printf("  %-13s %10.1f %15.0f\n", harness::protocol_name(row.protocol).c_str(),
                peak / 1000.0, row.paper_krps);
    if (row.protocol == harness::Protocol::kMultiPaxos) {
      mp_peak = peak;
    } else {
      best_multi_leader = std::max(best_multi_leader, peak);
      multi_leader.emplace_back(row.protocol, peak);
    }
  }
  // The paper's claim covers every multi-leader protocol, not just the
  // best one: each must reach at least the single leader's peak.
  std::printf("\n");
  bool every_at_least = true;
  for (const auto& [protocol, peak] : multi_leader) {
    if (peak >= mp_peak) continue;
    every_at_least = false;
    std::printf("%s peaks below Multi-Paxos: %.1fK vs %.1fK\n",
                harness::protocol_name(protocol).c_str(), peak / 1000, mp_peak / 1000);
  }
  std::printf("multi-leader protocols out-scale the single leader "
              "(every one >= Multi-Paxos %.0fK, best %.0fK): %s\n",
              mp_peak / 1000, best_multi_leader / 1000,
              every_at_least && best_multi_leader > mp_peak * 1.2 ? "yes" : "NO");
  return 0;
}

#include "harness/geometry.h"

#include <algorithm>

#include "common/window_estimator.h"
#include "measure/quorum.h"

namespace domino::harness {

std::size_t closest_replica(const net::Topology& topology,
                            const std::vector<std::size_t>& replica_dcs,
                            std::size_t client_dc) {
  std::size_t best = 0;
  Duration best_rtt = Duration::max();
  for (std::size_t i = 0; i < replica_dcs.size(); ++i) {
    const Duration rtt = topology.rtt(client_dc, replica_dcs[i]);
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = i;
    }
  }
  return best;
}

Duration fast_paxos_latency(const net::Topology& topology,
                            const std::vector<std::size_t>& replica_dcs,
                            std::size_t client_dc) {
  std::vector<Duration> rtts;
  rtts.reserve(replica_dcs.size());
  for (std::size_t dc : replica_dcs) rtts.push_back(topology.rtt(client_dc, dc));
  return kth_smallest(std::move(rtts), measure::supermajority(replica_dcs.size()));
}

Duration replication_latency(const net::Topology& topology,
                             const std::vector<std::size_t>& replica_dcs,
                             std::size_t replica_index) {
  std::vector<Duration> rtts;
  rtts.reserve(replica_dcs.size());
  for (std::size_t i = 0; i < replica_dcs.size(); ++i) {
    rtts.push_back(i == replica_index
                       ? Duration::zero()
                       : topology.rtt(replica_dcs[replica_index], replica_dcs[i]));
  }
  return kth_smallest(std::move(rtts), measure::majority(replica_dcs.size()));
}

Duration mencius_latency(const net::Topology& topology,
                         const std::vector<std::size_t>& replica_dcs,
                         std::size_t client_dc) {
  const std::size_t closest = closest_replica(topology, replica_dcs, client_dc);
  return topology.rtt(client_dc, replica_dcs[closest]) +
         replication_latency(topology, replica_dcs, closest);
}

Duration multipaxos_latency(const net::Topology& topology,
                            const std::vector<std::size_t>& replica_dcs,
                            std::size_t client_dc, std::size_t leader_index) {
  return topology.rtt(client_dc, replica_dcs[leader_index]) +
         replication_latency(topology, replica_dcs, leader_index);
}

GeometrySummary analyze_geometry(const net::Topology& topology, std::size_t replica_count) {
  GeometrySummary summary;
  const std::size_t n = topology.size();
  std::vector<std::size_t> placement(replica_count);

  // Enumerate combinations of distinct datacenters.
  std::vector<bool> select(n, false);
  std::fill(select.begin(), select.begin() + static_cast<std::ptrdiff_t>(replica_count),
            true);
  std::sort(select.begin(), select.end());  // prepare for next_permutation order
  std::size_t fp_vs_mencius = 0;
  std::size_t fp_vs_mp = 0;
  std::size_t mencius_cases = 0;
  std::size_t mp_cases = 0;
  do {
    placement.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (select[i]) placement.push_back(i);
    }
    if (placement.size() != replica_count) continue;
    for (std::size_t client = 0; client < n; ++client) {
      const Duration fp = fast_paxos_latency(topology, placement, client);
      const Duration men = mencius_latency(topology, placement, client);
      ++mencius_cases;
      if (fp < men) ++fp_vs_mencius;
      for (std::size_t leader = 0; leader < replica_count; ++leader) {
        const Duration mp = multipaxos_latency(topology, placement, client, leader);
        ++mp_cases;
        if (fp < mp) ++fp_vs_mp;
        GeometryCase c;
        c.replica_dcs = placement;
        c.client_dc = client;
        c.leader_index = leader;
        c.fast_paxos = fp;
        c.mencius = men;
        c.multi_paxos = mp;
        summary.cases.push_back(std::move(c));
      }
    }
  } while (std::next_permutation(select.begin(), select.end()));

  if (mencius_cases > 0) {
    summary.fp_beats_mencius =
        static_cast<double>(fp_vs_mencius) / static_cast<double>(mencius_cases);
  }
  if (mp_cases > 0) {
    summary.fp_beats_multipaxos =
        static_cast<double>(fp_vs_mp) / static_cast<double>(mp_cases);
  }
  return summary;
}

}  // namespace domino::harness

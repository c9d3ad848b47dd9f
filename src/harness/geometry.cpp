#include "harness/geometry.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "measure/estimator.h"

namespace domino::harness {

TopologyView::TopologyView(const net::Topology& topology,
                           const std::vector<std::size_t>& replica_dcs, std::size_t viewer_dc)
    : topology_(topology), replica_dcs_(replica_dcs), viewer_dc_(viewer_dc) {
  replicas_.reserve(replica_dcs.size());
  for (std::size_t i = 0; i < replica_dcs.size(); ++i) {
    replicas_.push_back(NodeId{static_cast<std::uint32_t>(i)});
  }
}

Duration TopologyView::rtt_estimate(NodeId target) const {
  return topology_.rtt(viewer_dc_, replica_dcs_.at(target.value()));
}

Duration TopologyView::owd_estimate(NodeId target) const {
  return topology_.owd(viewer_dc_, replica_dcs_.at(target.value()));
}

Duration TopologyView::replication_latency_of(NodeId target) const {
  const TopologyView from_target{topology_, replica_dcs_, replica_dcs_.at(target.value())};
  return measure::estimate_replication_latency(from_target, target, replicas_);
}

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

GeometrySummary analyze_geometry(const net::Topology& topology, std::size_t replica_count) {
  const std::size_t n = topology.size();
  if (replica_count == 0 || replica_count > n) {
    throw std::invalid_argument("analyze_geometry: replica_count must be in [1, " +
                                std::to_string(n) + "], got " +
                                std::to_string(replica_count));
  }
  GeometrySummary summary;
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
    for (std::size_t client = 0; client < n; ++client) {
      const TopologyView view{topology, placement, client};
      // Leader-based commit: client -> leader, then the leader's majority.
      const auto via = [&view](std::size_t leader) {
        const NodeId id = view.replicas()[leader];
        return view.rtt_estimate(id) + view.replication_latency_of(id);
      };
      const Duration fp = measure::estimate_dfp_latency(view, view.replicas());
      const Duration men = via(closest_replica(topology, placement, client));
      ++mencius_cases;
      if (fp < men) ++fp_vs_mencius;
      for (std::size_t leader = 0; leader < replica_count; ++leader) {
        const Duration mp = via(leader);
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

  summary.fp_beats_mencius =
      static_cast<double>(fp_vs_mencius) / static_cast<double>(mencius_cases);
  summary.fp_beats_multipaxos = static_cast<double>(fp_vs_mp) / static_cast<double>(mp_cases);
  return summary;
}

}  // namespace domino::harness

// Network-geometry analysis (paper Section 4).
//
// Over a topology's RTT matrix, enumerate replica placements and client
// locations and compare the idealized (conflict-free) commit latency of
// Fast Paxos, Mencius, and Multi-Paxos. Each is priced by the Section 5.6
// estimators (measure/estimator.h) over a TopologyView of the matrix:
//   Fast Paxos : estimate_dfp_latency, the q-th smallest client->replica
//                RTT (q = supermajority),
//   Mencius    : RTT(client, closest replica c) + L_c,
//   Multi-Paxos: RTT(client, leader) + L_leader,
// where L_r = estimate_replication_latency seen from r, the majority-th
// smallest RTT from r to all replicas (self = 0). The paper reports Fast
// Paxos winning 32.5% of cases against Mencius and 70.8% against
// Multi-Paxos on the Globe matrix with 3 replicas.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "measure/latency_view.h"
#include "net/topology.h"

namespace domino::harness {

/// A topology's RTT matrix as the estimators see it from one datacenter.
/// NodeId{i} is the replica in replica_dcs[i], as the runner numbers
/// replicas. Estimates are the matrix's delays and never stale. The view
/// keeps references: `topology` and `replica_dcs` must outlive it.
class TopologyView final : public measure::LatencyView {
 public:
  TopologyView(const net::Topology& topology, const std::vector<std::size_t>& replica_dcs,
               std::size_t viewer_dc);

  [[nodiscard]] Duration rtt_estimate(NodeId target) const override;
  [[nodiscard]] Duration owd_estimate(NodeId target) const override;
  /// estimate_replication_latency seen from `target`'s own datacenter.
  [[nodiscard]] Duration replication_latency_of(NodeId target) const override;
  [[nodiscard]] bool is_stale(NodeId) const override { return false; }

  /// NodeId{0} … NodeId{n-1}, the replica list the estimators take.
  [[nodiscard]] const std::vector<NodeId>& replicas() const { return replicas_; }

 private:
  const net::Topology& topology_;
  const std::vector<std::size_t>& replica_dcs_;
  std::size_t viewer_dc_;
  std::vector<NodeId> replicas_;
};

struct GeometryCase {
  std::vector<std::size_t> replica_dcs;
  std::size_t client_dc = 0;
  std::size_t leader_index = 0;  // Multi-Paxos leader for this case
  Duration fast_paxos;
  Duration mencius;
  Duration multi_paxos;
};

struct GeometrySummary {
  std::vector<GeometryCase> cases;
  double fp_beats_mencius = 0.0;     // fraction of cases
  double fp_beats_multipaxos = 0.0;  // fraction of cases
};

/// The closest replica (index into replica_dcs) for a client datacenter,
/// by topology RTT — how the paper pre-configures Mencius/EPaxos clients.
[[nodiscard]] std::size_t closest_replica(const net::Topology& topology,
                                          const std::vector<std::size_t>& replica_dcs,
                                          std::size_t client_dc);

/// Enumerate every unordered placement of `replica_count` replicas in
/// distinct datacenters, every client datacenter, and every leader choice
/// (enumerating leaders reproduces the paper's "randomly select a replica
/// to be the leader" in expectation). Throws std::invalid_argument unless
/// 1 <= replica_count <= topology.size().
[[nodiscard]] GeometrySummary analyze_geometry(const net::Topology& topology,
                                               std::size_t replica_count);

}  // namespace domino::harness

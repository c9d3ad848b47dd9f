// Network-geometry analysis (paper Section 4).
//
// Over a topology's RTT matrix, enumerate replica placements and client
// locations and compare the idealized (conflict-free) commit latency of
// Fast Paxos, Mencius, and Multi-Paxos:
//   Fast Paxos : q-th smallest client->replica RTT (q = supermajority),
//   Mencius    : RTT(client, closest replica c) + L_c,
//   Multi-Paxos: RTT(client, leader) + L_leader,
// where L_r is the majority-th smallest RTT from r to all replicas (self =
// 0). The paper reports Fast Paxos winning 32.5% of cases against Mencius
// and 70.8% against Multi-Paxos on the Globe matrix with 3 replicas.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.h"
#include "net/topology.h"

namespace domino::harness {

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

/// Idealized commit latencies for one placement.
[[nodiscard]] Duration fast_paxos_latency(const net::Topology& topology,
                                          const std::vector<std::size_t>& replica_dcs,
                                          std::size_t client_dc);
[[nodiscard]] Duration replication_latency(const net::Topology& topology,
                                           const std::vector<std::size_t>& replica_dcs,
                                           std::size_t replica_index);
[[nodiscard]] Duration mencius_latency(const net::Topology& topology,
                                       const std::vector<std::size_t>& replica_dcs,
                                       std::size_t client_dc);
[[nodiscard]] Duration multipaxos_latency(const net::Topology& topology,
                                          const std::vector<std::size_t>& replica_dcs,
                                          std::size_t client_dc, std::size_t leader_index);

/// Enumerate every unordered placement of `replica_count` replicas in
/// distinct datacenters, every client datacenter, and every leader choice
/// (enumerating leaders reproduces the paper's "randomly select a replica
/// to be the leader" in expectation).
[[nodiscard]] GeometrySummary analyze_geometry(const net::Topology& topology,
                                               std::size_t replica_count);

}  // namespace domino::harness

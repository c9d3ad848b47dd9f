#include "harness/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "measure/estimator.h"

namespace domino::harness {
namespace {

/// FNV-1a over every case of an analysis: placement, client, leader and
/// the three latencies in nanoseconds, in enumeration order.
std::uint64_t cases_digest(const GeometrySummary& g) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const GeometryCase& c : g.cases) {
    add(c.replica_dcs.size());
    for (const std::size_t dc : c.replica_dcs) add(dc);
    add(c.client_dc);
    add(c.leader_index);
    for (const Duration d : {c.fast_paxos, c.mencius, c.multi_paxos}) {
      add(static_cast<std::uint64_t>(d.nanos()));
    }
  }
  return h;
}

TEST(Geometry, PaperFigure4Example) {
  // Figure 4's edge delays (RTTs): client to R1 10 ms, to R2 20 ms, to R3
  // 35 ms; R1-R2 20 ms, R1-R3 25 ms, R2-R3 30 ms. Multi-Paxos with R1 as
  // leader commits in 10 + 20 = 30 ms (R1 plus R2 form a majority); Fast
  // Paxos waits for its supermajority, all three replicas, so 35 ms.
  net::Topology topo{{"Client", "R1", "R2", "R3"},
                     {{0, 10, 20, 35}, {10, 0, 20, 25}, {20, 20, 0, 30},
                      {35, 25, 30, 0}}};
  const std::vector<std::size_t> replicas = {1, 2, 3};
  const TopologyView client{topo, replicas, 0};
  const NodeId r1 = client.replicas()[0];
  const Duration fp = measure::estimate_dfp_latency(client, client.replicas());
  const Duration mp = client.rtt_estimate(r1) + client.replication_latency_of(r1);
  EXPECT_EQ(fp, milliseconds(35));
  EXPECT_EQ(mp, milliseconds(30));
}

TEST(Geometry, FastPaxosLatencyIsQthSmallest) {
  const auto topo = net::Topology::globe();
  const std::vector<std::size_t> replicas = {topo.index_of("WA"), topo.index_of("PR"),
                                             topo.index_of("NSW")};
  // From VA: RTTs 67 (WA), 80 (PR), 196 (NSW); q = 3 -> 196.
  const TopologyView va{topo, replicas, topo.index_of("VA")};
  EXPECT_EQ(measure::estimate_dfp_latency(va, va.replicas()), milliseconds(196));
}

TEST(Geometry, ReplicationLatencyIsMajority) {
  const auto topo = net::Topology::globe();
  const std::vector<std::size_t> replicas = {topo.index_of("WA"), topo.index_of("PR"),
                                             topo.index_of("NSW")};
  // From WA: 0 (self), 136 (PR), 175 (NSW); majority = 2 -> 136, whichever
  // datacenter the view is seen from.
  for (std::size_t viewer = 0; viewer < topo.size(); ++viewer) {
    EXPECT_EQ(TopologyView(topo, replicas, viewer).replication_latency_of(NodeId{0}),
              milliseconds(136));
  }
}

/// The Globe n = 3 case with replicas in WA, PR and NSW, leader WA.
const GeometryCase& wa_pr_nsw_case(const GeometrySummary& g, std::size_t client_dc) {
  const auto topo = net::Topology::globe();
  const std::vector<std::size_t> replicas = {topo.index_of("WA"), topo.index_of("PR"),
                                             topo.index_of("NSW")};
  for (const GeometryCase& c : g.cases) {
    if (c.replica_dcs == replicas && c.client_dc == client_dc && c.leader_index == 0) return c;
  }
  throw std::logic_error("no such case");
}

TEST(Geometry, MenciusUsesClosestReplica) {
  const auto topo = net::Topology::globe();
  const GeometrySummary g = analyze_geometry(topo, 3);
  // VA -> closest replica WA (67) + L_WA (136) = 203.
  EXPECT_EQ(wa_pr_nsw_case(g, topo.index_of("VA")).mencius, milliseconds(203));
}

TEST(Geometry, ColocatedClientGetsIntraDcHop) {
  const auto topo = net::Topology::globe();
  const GeometrySummary g = analyze_geometry(topo, 3);
  EXPECT_EQ(wa_pr_nsw_case(g, topo.index_of("WA")).mencius,
            microseconds(500) + milliseconds(136));
}

TEST(Geometry, RejectsZeroReplicas) {
  EXPECT_THROW((void)analyze_geometry(net::Topology::globe(), 0), std::invalid_argument);
}

TEST(Geometry, RejectsMoreReplicasThanDatacenters) {
  // Globe has six datacenters.
  EXPECT_THROW((void)analyze_geometry(net::Topology::globe(), 7), std::invalid_argument);
}

TEST(Geometry, GlobeAnalysisMatchesPaperSection4) {
  // The paper: "Fast Paxos has lower commit latency than Mencius and
  // Multi-Paxos for 32.5% and 70.8% of the cases, respectively" (6 Azure
  // DCs, 3 replicas). Our enumeration should land in the same region.
  const GeometrySummary g = analyze_geometry(net::Topology::globe(), 3);
  EXPECT_NEAR(g.fp_beats_mencius, 0.325, 0.08);
  EXPECT_NEAR(g.fp_beats_multipaxos, 0.708, 0.08);
  // C(6,3) placements x 6 clients x 3 leaders.
  EXPECT_EQ(g.cases.size(), 20u * 6u * 3u);
}

TEST(Geometry, EveryCaseMatchesRecordedDigest) {
  // Recorded from the closed forms the analysis used before it priced
  // quorums through the Section 5.6 estimators; the printed percentages are
  // too coarse to show the two agree on every case.
  EXPECT_EQ(cases_digest(analyze_geometry(net::Topology::globe(), 3)), 0x01fb5878db67bc7fULL);
  EXPECT_EQ(cases_digest(analyze_geometry(net::Topology::north_america(), 3)), 0xebd901d966e7e02dULL);
  EXPECT_EQ(cases_digest(analyze_geometry(net::Topology::globe(), 5)), 0x5992c8d8541847b7ULL);
}

TEST(Geometry, CaseLatenciesAreConsistent) {
  const GeometrySummary g = analyze_geometry(net::Topology::globe(), 3);
  // Cases come in runs of one per leader for each (placement, client).
  ASSERT_EQ(g.cases.size() % 3, 0u);
  for (std::size_t i = 0; i < g.cases.size(); i += 3) {
    Duration best_mp = Duration::max();
    for (std::size_t l = 0; l < 3; ++l) {
      const GeometryCase& c = g.cases[i + l];
      EXPECT_EQ(c.leader_index, l);
      EXPECT_EQ(c.replica_dcs, g.cases[i].replica_dcs);
      EXPECT_EQ(c.client_dc, g.cases[i].client_dc);
      EXPECT_GT(c.fast_paxos, Duration::zero());
      EXPECT_GT(c.mencius, Duration::zero());
      EXPECT_GT(c.multi_paxos, Duration::zero());
      best_mp = std::min(best_mp, c.multi_paxos);
    }
    // Multi-Paxos with the best possible leader is at least as good as
    // Mencius (whose "leader" is fixed to the closest replica).
    EXPECT_LE(best_mp, g.cases[i].mencius);
  }
}

}  // namespace
}  // namespace domino::harness

// Cluster-size sweep: the protocols must stay correct and exhibit the
// right quorum geometry at n = 3, 5 and 7 replicas (f = 1, 2, 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "common/window_estimator.h"
#include "harness/geometry.h"
#include "harness/runner.h"
#include "measure/estimator.h"
#include "measure/quorum.h"

namespace domino::harness {
namespace {

// gtest prints a parameter without a PrintTo as its raw bytes, and that
// text becomes part of the listed test name. The explicit zero field keeps
// the bytes between the 4-byte enum and the 8-byte count from being stack
// garbage, so the names are the same on every build.
struct SizeCase {
  Protocol protocol;
  std::uint32_t zero = 0;
  std::size_t replicas;
};
static_assert(std::has_unique_object_representations_v<SizeCase>,
              "SizeCase must have no padding bytes");

class ClusterSizeSweep : public ::testing::TestWithParam<SizeCase> {};

Scenario scenario_for(std::size_t n) {
  Scenario s;
  s.topology = net::Topology::north_america();
  // First n datacenters host replicas; clients in three fixed sites.
  for (std::size_t i = 0; i < n; ++i) s.replica_dcs.push_back(i);
  s.client_dcs = {6, 7, 8};  // IL, QC, TRT
  s.rps = 50;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = seconds(3);
  s.seed = 77 + n;
  return s;
}

TEST_P(ClusterSizeSweep, AllCommitAndConverge) {
  const SizeCase c = GetParam();
  const RunResult r = run_protocol(c.protocol, scenario_for(c.replicas));
  EXPECT_EQ(r.committed, r.commit_ms.count());
  EXPECT_NEAR(static_cast<double>(r.committed), 600.0, 90.0);  // 3 x 50 x 4s
  EXPECT_GT(r.commit_ms.percentile(50), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ClusterSizeSweep,
    ::testing::Values(SizeCase{.protocol = Protocol::kDomino, .replicas = 3},
                      SizeCase{.protocol = Protocol::kDomino, .replicas = 5},
                      SizeCase{.protocol = Protocol::kDomino, .replicas = 7},
                      SizeCase{.protocol = Protocol::kMencius, .replicas = 5},
                      SizeCase{.protocol = Protocol::kMencius, .replicas = 7},
                      SizeCase{.protocol = Protocol::kEPaxos, .replicas = 5},
                      SizeCase{.protocol = Protocol::kMultiPaxos, .replicas = 7},
                      SizeCase{.protocol = Protocol::kFastPaxos, .replicas = 5}),
    [](const ::testing::TestParamInfo<SizeCase>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_n" + std::to_string(info.param.replicas);
    });

TEST(ClusterSizeGeometry, SupermajorityNeverCheaperThanMajority) {
  // On any placement, the supermajority order statistic (Fast Paxos' wait)
  // is at least the majority order statistic (a leader's replication wait)
  // — the structural reason leader-based protocols can win (Section 4).
  const auto topo = net::Topology::north_america();
  for (std::size_t n : {3u, 5u, 7u, 9u}) {
    std::vector<std::size_t> placement;
    for (std::size_t i = 0; i < n; ++i) placement.push_back(i);
    for (std::size_t client = 0; client < topo.size(); ++client) {
      std::vector<Duration> rtts;
      for (std::size_t dc : placement) rtts.push_back(topo.rtt(client, dc));
      const Duration super = kth_smallest(rtts, measure::supermajority(n));
      const Duration major = kth_smallest(rtts, measure::majority(n));
      EXPECT_GE(super, major) << "n=" << n << " client=" << client;
      const TopologyView view{topo, placement, client};
      EXPECT_EQ(measure::estimate_dfp_latency(view, view.replicas()), super);
    }
  }
}

TEST(ClusterSizeGeometry, DominoFiveReplicaFastPathWorks) {
  // End-to-end: with 5 replicas the fast path needs only 4 of 5 — a single
  // slow replica no longer blocks it.
  Scenario s = scenario_for(5);
  s.domino_mode = core::ClientConfig::Mode::kDfpOnly;
  s.additional_delay = milliseconds(2);
  const RunResult r = run_domino(s);
  EXPECT_GT(r.fast_path, r.committed * 8 / 10);
}

}  // namespace
}  // namespace domino::harness

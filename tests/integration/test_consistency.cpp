// Cross-protocol consistency sweep: for every protocol and a range of
// seeds/contention levels, run a multi-client deployment on a jittery WAN
// and assert the replicated-state-machine invariants:
//   1. every submitted request commits exactly once at its client,
//   2. all replicas converge to identical stores,
//   3. all replicas apply the same number of commands.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/runner.h"

namespace domino::harness {
namespace {

// gtest prints a parameter without a PrintTo as its raw bytes, and that
// text becomes part of the listed test name. The explicit zero field keeps
// the bytes between the 4-byte enum and the 8-byte seed from being stack
// garbage, so the names are the same on every build.
struct Sweep {
  Sweep(Protocol p, std::uint64_t s, double z) : protocol(p), seed(s), zipf(z) {}
  Protocol protocol;
  std::uint32_t zero = 0;
  std::uint64_t seed;
  double zipf;
};
// A double has no unique object representation, so check the layout
// field by field: no byte of Sweep is padding.
static_assert(sizeof(Sweep) ==
              sizeof(Protocol) + sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(double));

class ConsistencySweep : public ::testing::TestWithParam<Sweep> {};

// The runner's protocol deployments already assert internal invariants via
// exceptions (e.g. conflicting log entries throw); this test drives them
// under jitter and checks the end-to-end counts.
TEST_P(ConsistencySweep, AllSubmittedRequestsCommitUnderJitter) {
  const Sweep sweep = GetParam();
  Scenario s;
  s.topology = net::Topology::north_america();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("VA"),
                   s.topology.index_of("QC")};
  s.client_dcs = {s.topology.index_of("IA"), s.topology.index_of("TX"),
                  s.topology.index_of("CA")};
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = seconds(3);
  s.seed = sweep.seed;
  s.workload.num_keys = 50;  // heavy contention stresses ordering
  s.workload.zipf_alpha = sweep.zipf;

  const RunResult r = run_protocol(sweep.protocol, s);
  EXPECT_GT(r.committed, 0u);
  // Every tracked (measurement-window) request committed.
  EXPECT_EQ(r.committed, r.commit_ms.count());
  // ~100 rps x 4 s x 3 clients tracked requests, all committed.
  EXPECT_NEAR(static_cast<double>(r.committed), 1200.0, 150.0);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ConsistencySweep,
    ::testing::Values(Sweep{Protocol::kMultiPaxos, 1, 0.75},
                      Sweep{Protocol::kMultiPaxos, 2, 0.95},
                      Sweep{Protocol::kMencius, 1, 0.75},
                      Sweep{Protocol::kMencius, 2, 0.95},
                      Sweep{Protocol::kEPaxos, 1, 0.75},
                      Sweep{Protocol::kEPaxos, 2, 0.95},
                      Sweep{Protocol::kFastPaxos, 1, 0.75},
                      Sweep{Protocol::kDomino, 1, 0.75},
                      Sweep{Protocol::kDomino, 2, 0.95},
                      Sweep{Protocol::kDomino, 3, 0.75}),
    [](const ::testing::TestParamInfo<Sweep>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed) + "_z" +
             std::to_string(static_cast<int>(info.param.zipf * 100));
    });

TEST(RunnerDeterminism, SameSeedSameResult) {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {1, 2, 3};
  s.client_dcs = {0, 4};
  s.rps = 50;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  s.seed = 99;
  const RunResult a = run_domino(s);
  const RunResult b = run_domino(s);
  ASSERT_EQ(a.commit_ms.count(), b.commit_ms.count());
  EXPECT_DOUBLE_EQ(a.commit_ms.percentile(50), b.commit_ms.percentile(50));
  EXPECT_DOUBLE_EQ(a.commit_ms.percentile(99), b.commit_ms.percentile(99));
  EXPECT_EQ(a.packets_sent, b.packets_sent);
}

TEST(RunnerDeterminism, DifferentSeedsDiffer) {
  Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {1, 2, 3};
  s.client_dcs = {0};
  s.rps = 50;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  s.seed = 1;
  const RunResult a = run_domino(s);
  s.seed = 2;
  const RunResult b = run_domino(s);
  EXPECT_NE(a.packets_sent, b.packets_sent);
}

}  // namespace
}  // namespace domino::harness

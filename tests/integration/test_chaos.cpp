// Seeded chaos sweep: every protocol runs under a randomized-but-seeded
// fault schedule (a mid-run replica crash, a client<->replica partition, a
// link degradation epoch, and a route change — every crash recovers and
// every partition heals) with per-request client timeouts enabled, and the
// suite asserts:
//   1. liveness — every submitted request eventually commits (retries and
//      protocol failover absorb the faults; nothing is abandoned),
//   2. consistency — a majority of replicas converge to identical stores
//      (a replica that was down may lag; the live majority must agree),
//   3. determinism — running the same (protocol, chaos seed) twice gives
//      byte-identical fault/drop behaviour (equal injector digests) and
//      identical end-to-end results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <type_traits>

#include "common/rng.h"
#include "harness/runner.h"

namespace domino::harness {
namespace {

Scenario chaos_scenario(std::uint64_t seed) {
  Scenario s;
  s.topology = net::Topology::north_america();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("VA"),
                   s.topology.index_of("QC")};
  s.client_dcs = {s.topology.index_of("IA"), s.topology.index_of("TX")};
  s.rps = 30;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  // Generous drain window: the last request is submitted at the end of the
  // measurement window and may still ride out a fault plus several retries.
  s.cooldown = seconds(4);
  s.seed = seed;
  s.workload.num_keys = 40;
  s.workload.zipf_alpha = 0.75;
  s.client_request_timeout = milliseconds(300);
  s.client_max_retries = 8;
  return s;
}

/// Generate a fault schedule from a seed. All faults fall inside the
/// measurement window and always heal, so a run that retries long enough
/// must commit everything.
net::FaultSchedule make_chaos_schedule(const Scenario& s, std::uint64_t chaos_seed) {
  Rng rng(chaos_seed ^ 0xC4A05ull);
  net::FaultSchedule f;
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  auto at_ms = [&](double lo, double hi) {
    return w0 + milliseconds(static_cast<std::int64_t>(rng.uniform(lo, hi)));
  };
  auto dur_ms = [&](double lo, double hi) {
    return milliseconds(static_cast<std::int64_t>(rng.uniform(lo, hi)));
  };

  // Crash one non-coordinator replica mid-run; it always comes back.
  // (Replica 0 is the fixed Multi-Paxos leader / Fast Paxos and DFP
  // coordinator — none of which elect a successor — so chaos crashes spare
  // it and dedicated tests cover coordinator failure per protocol.)
  const std::size_t victim =
      1 + static_cast<std::size_t>(rng.next_u64() % (s.replica_dcs.size() - 1));
  f.crash_for(at_ms(300, 1200), NodeId{static_cast<std::uint32_t>(victim)},
              dur_ms(200, 500));

  // One bidirectional partition between a client DC and a replica DC.
  const std::size_t cdc = s.client_dcs[rng.next_u64() % s.client_dcs.size()];
  const std::size_t rdc = s.replica_dcs[rng.next_u64() % s.replica_dcs.size()];
  if (cdc != rdc) f.partition_both_for(at_ms(1600, 2200), cdc, rdc, dur_ms(200, 400));

  // A degradation epoch on a replica-to-replica link.
  f.degrade(at_ms(500, 2000), dur_ms(300, 800), s.replica_dcs[0], s.replica_dcs[1],
            /*multiplier=*/rng.uniform(1.5, 3.0), /*extra_spike_prob=*/0.2,
            /*spike_mean=*/milliseconds(5));

  // A permanent route change on one replica link: +50-100% base delay.
  const Duration old_base = s.topology.owd(s.replica_dcs[1], s.replica_dcs[2]);
  f.route_change(at_ms(800, 2500), s.replica_dcs[1], s.replica_dcs[2],
                 Duration{static_cast<std::int64_t>(
                     static_cast<double>(old_base.nanos()) * rng.uniform(1.5, 2.0))});
  return f;
}

/// The fingerprint shared by the largest group of replicas, plus its count.
std::pair<std::uint64_t, std::size_t> majority_fingerprint(
    const std::vector<std::uint64_t>& fps) {
  std::map<std::uint64_t, std::size_t> votes;
  for (std::uint64_t fp : fps) ++votes[fp];
  std::pair<std::uint64_t, std::size_t> best{0, 0};
  for (const auto& [fp, n] : votes) {
    if (n > best.second) best = {fp, n};
  }
  return best;
}

// gtest prints a parameter without a PrintTo as its raw bytes, and that
// text becomes part of the listed test name. The explicit zero field keeps
// the bytes between the 4-byte enum and the 8-byte seed from being stack
// garbage, so the names are the same on every build.
struct ChaosCase {
  ChaosCase(Protocol p, std::uint64_t s) : protocol(p), seed(s) {}
  Protocol protocol;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<ChaosCase>,
              "ChaosCase must have no padding bytes");

class ChaosSweep : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosSweep, LivenessConsistencyAndDeterminismUnderFaults) {
  const ChaosCase c = GetParam();
  Scenario s = chaos_scenario(c.seed);
  s.faults = make_chaos_schedule(s, c.seed);
  ASSERT_FALSE(s.faults.empty());

  const RunResult a = run_protocol(c.protocol, s);
  const RunResult b = run_protocol(c.protocol, s);

  // -- Liveness: all faults healed and retries were generous, so every
  // submitted request commits; nothing is abandoned or left hanging.
  EXPECT_GT(a.committed, 0u);
  EXPECT_EQ(a.client_abandoned, 0u);
  EXPECT_EQ(a.client_inflight_end, 0u);
  EXPECT_EQ(a.submitted,
            a.client_committed + a.client_abandoned + a.client_inflight_end);
  // The schedule actually bit: packets were lost to the crash/partition.
  EXPECT_GT(a.packets_dropped, 0u);
  EXPECT_GT(a.fault_transitions, 0u);

  // -- Consistency: the live majority of replicas agree on the full store.
  ASSERT_EQ(a.replica_store_fingerprints.size(), s.replica_dcs.size());
  const auto [fp, agree] = majority_fingerprint(a.replica_store_fingerprints);
  EXPECT_GE(agree, s.replica_dcs.size() / 2 + 1)
      << "replica stores diverged beyond the crashed minority";

  // -- Determinism: same seed + schedule => byte-identical fault/drop
  // behaviour and identical end-to-end results.
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.drops_crashed_source, b.drops_crashed_source);
  EXPECT_EQ(a.drops_crashed_dest, b.drops_crashed_dest);
  EXPECT_EQ(a.drops_partition, b.drops_partition);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.client_committed, b.client_committed);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.replica_store_fingerprints, b.replica_store_fingerprints);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ChaosSweep,
    ::testing::Values(
        ChaosCase{Protocol::kMultiPaxos, 11}, ChaosCase{Protocol::kMultiPaxos, 12},
        ChaosCase{Protocol::kMultiPaxos, 13}, ChaosCase{Protocol::kMencius, 11},
        ChaosCase{Protocol::kMencius, 12}, ChaosCase{Protocol::kMencius, 13},
        ChaosCase{Protocol::kEPaxos, 11}, ChaosCase{Protocol::kEPaxos, 12},
        ChaosCase{Protocol::kEPaxos, 13}, ChaosCase{Protocol::kFastPaxos, 11},
        ChaosCase{Protocol::kFastPaxos, 12}, ChaosCase{Protocol::kFastPaxos, 13},
        ChaosCase{Protocol::kDomino, 11}, ChaosCase{Protocol::kDomino, 12},
        ChaosCase{Protocol::kDomino, 13}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_chaos" + std::to_string(info.param.seed);
    });

// Acceptance scenario: a Domino deployment whose clients lean on DM loses
// the DM leader mid-run; the probe feed goes stale, timed-out requests fail
// over to a live leader, and every request still commits.
TEST(ChaosDomino, DmLeaderCrashMidRunCompletesAllRequests) {
  Scenario s = chaos_scenario(77);
  s.domino_mode = core::ClientConfig::Mode::kDmOnly;
  // Crash the closest replica to the first client DC — the minimum-latency
  // DM leader its estimator will have picked — for 800 ms mid-window.
  const std::size_t leader =
      closest_replica(s.topology, s.replica_dcs, s.client_dcs[0]);
  net::FaultSchedule f;
  f.crash_for(TimePoint::epoch() + s.warmup + milliseconds(800),
              NodeId{static_cast<std::uint32_t>(leader)}, milliseconds(800));
  s.faults = f;

  const RunResult r = run_domino(s);
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(r.client_abandoned, 0u);
  EXPECT_EQ(r.client_inflight_end, 0u);
  EXPECT_EQ(r.submitted, r.client_committed);
  // The crash was felt (requests to the dead leader were dropped and
  // retried elsewhere).
  EXPECT_GT(r.drops_crashed_dest, 0u);
  EXPECT_GT(r.client_retries, 0u);
}

// Fault-free control: enabling timeouts must not change a healthy run.
TEST(ChaosControl, NoFaultsMeansNoDropsNoRetries) {
  Scenario s = chaos_scenario(5);
  const RunResult r = run_domino(s);
  EXPECT_EQ(r.packets_dropped, 0u);
  EXPECT_EQ(r.client_retries, 0u);
  EXPECT_EQ(r.client_abandoned, 0u);
  EXPECT_EQ(r.fault_transitions, 0u);
  EXPECT_EQ(r.submitted, r.client_committed);
  const auto [fp, agree] = majority_fingerprint(r.replica_store_fingerprints);
  EXPECT_EQ(agree, r.replica_store_fingerprints.size());  // all converge
}

}  // namespace
}  // namespace domino::harness

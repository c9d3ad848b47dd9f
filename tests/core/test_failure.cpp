// Replica-failure tests (paper Section 5.8): Domino tolerates f crash
// failures out of 2f + 1 replicas. Clients stop using DFP once a replica is
// unreachable (no supermajority); a successor revokes the dead replica's DM
// lane so execution keeps advancing; the DFP coordinator recovers the
// committed-no-op frontier past the dead replica's frozen clock.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/replica.h"
#include "harness/runner.h"
#include "support/fixtures.h"

namespace domino::core {
namespace {

using test::four_dc;
using test::make_command;
using test::replica_ids;

struct FailureCluster : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, four_dc(), 1};
  std::vector<NodeId> rids = replica_ids(3);
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<Client> client;

  void SetUp() override {
    // Coordinator at rank 0 (DC A); client in D.
    for (std::size_t i = 0; i < 3; ++i) {
      replicas.push_back(
          std::make_unique<Replica>(rids[i], i, network, rids, rids[0]));
      replicas.back()->attach();
      replicas.back()->start();
    }
    client = std::make_unique<Client>(NodeId{1000}, 3, network, rids);
    client->attach();
    client->start();
  }

  void warmup() { simulator.run_until(TimePoint::epoch() + seconds(1)); }
};

TEST_F(FailureCluster, ClientSwitchesToDmAfterCrash) {
  warmup();
  network.crash(rids[2]);
  simulator.run_until(TimePoint::epoch() + seconds(2));  // past failure timeout
  const auto est = client->estimates();
  // DFP needs a supermajority (all 3); with one dead it is unreachable.
  EXPECT_EQ(est.dfp, Duration::max());
  EXPECT_NE(est.dm, Duration::max());
  client->submit(make_command(client->id(), 0));
  simulator.run_until(TimePoint::epoch() + seconds(4));
  EXPECT_EQ(client->committed_count(), 1u);
  EXPECT_EQ(client->dm_chosen(), 1u);
}

TEST_F(FailureCluster, CommitsContinueAfterNonCoordinatorCrash) {
  warmup();
  network.crash(rids[2]);
  simulator.run_until(TimePoint::epoch() + seconds(2));
  for (std::uint64_t s = 0; s < 10; ++s) {
    client->submit(make_command(client->id(), s, "k" + std::to_string(s), "v"));
  }
  simulator.run_until(TimePoint::epoch() + seconds(5));
  EXPECT_EQ(client->committed_count(), 10u);
}

TEST_F(FailureCluster, ExecutionContinuesAfterCrashViaLaneRevocation) {
  warmup();
  network.crash(rids[2]);
  simulator.run_until(TimePoint::epoch() + seconds(2));
  std::uint64_t executed_on_0 = 0;
  replicas[0]->set_execute_hook(
      [&](const RequestId&, TimePoint) { ++executed_on_0; });
  for (std::uint64_t s = 0; s < 10; ++s) {
    client->submit(make_command(client->id(), s, "k" + std::to_string(s), "v"));
  }
  simulator.run_until(TimePoint::epoch() + seconds(6));
  // Without the dead replica's DM-lane revocation and the DFP range
  // recovery, the global frontier would freeze at the crash time and
  // nothing would execute.
  EXPECT_EQ(executed_on_0, 10u);
  // Both survivors converge.
  EXPECT_EQ(replicas[0]->store().items(), replicas[1]->store().items());
  EXPECT_EQ(replicas[0]->store().size(), 10u);
}

TEST_F(FailureCluster, InFlightDfpResolvedByRecoveryAfterCrash) {
  warmup();
  // Submit via DFP, then crash a replica while proposals are in flight.
  ClientConfig cc;
  cc.mode = ClientConfig::Mode::kDfpOnly;
  cc.additional_delay = milliseconds(1);
  auto dfp_client = std::make_unique<Client>(NodeId{1001}, 3, network, rids, cc);
  dfp_client->attach();
  dfp_client->start();
  simulator.run_until(TimePoint::epoch() + seconds(2));
  dfp_client->submit(make_command(dfp_client->id(), 0, "x", "y"));
  simulator.schedule_after(milliseconds(5), [&] { network.crash(rids[2]); });
  simulator.run_until(TimePoint::epoch() + seconds(6));
  // The proposal cannot reach a supermajority; the coordinator's recovery
  // timer resolves it (commit or DM re-route) and the client learns.
  EXPECT_EQ(dfp_client->committed_count(), 1u);
  EXPECT_EQ(replicas[0]->store().get("x"), "y");
  EXPECT_EQ(replicas[1]->store().get("x"), "y");
}

TEST_F(FailureCluster, DeadDmLeaderEntriesSurviveIfReplicated) {
  warmup();
  // Drive a DM request through replica 2 (the future crash victim) and let
  // the accept reach the survivors, then crash the leader before anyone
  // hears its commit.
  ClientConfig cc;
  cc.mode = ClientConfig::Mode::kDmOnly;
  auto dm_client = std::make_unique<Client>(NodeId{1001}, 2, network, rids, cc);
  dm_client->attach();
  dm_client->start();
  simulator.run_until(TimePoint::epoch() + seconds(2));
  // Send directly to replica 2 as DM leader.
  sm::Command cmd = make_command(dm_client->id(), 0, "persist", "me");
  dm_client->submit(cmd);
  // Crash after accepts propagate (C->A is 40 ms RTT; accepts arrive ~20 ms)
  // but before commits are broadcast everywhere.
  simulator.schedule_after(milliseconds(21), [&] { network.crash(rids[2]); });
  simulator.run_until(TimePoint::epoch() + seconds(8));
  // The lane revocation must have committed the accepted entry at the
  // survivors (it was accepted by at least one live replica).
  EXPECT_EQ(replicas[0]->store().get("persist"), "me");
  EXPECT_EQ(replicas[1]->store().get("persist"), "me");
  EXPECT_EQ(replicas[0]->store().items(), replicas[1]->store().items());
}

TEST_F(FailureCluster, LaneRevocationUnderPartitionThenHeal) {
  warmup();
  // Cut DC C (replica 2) off from every other datacenter for 2 s, via the
  // fault scheduler: [1.5 s, 3.5 s).
  const TimePoint start = TimePoint::epoch() + milliseconds(1500);
  net::FaultSchedule s;
  for (std::size_t dc : {0u, 1u, 3u}) {
    s.partition_both_for(start, 2, dc, seconds(2));
  }
  network.install_faults(s);

  // 600 ms into the partition the failure detector (500 ms) has fired.
  simulator.run_until(start + milliseconds(600));
  EXPECT_TRUE(client->view().is_stale(rids[2]));
  for (std::uint64_t q = 0; q < 10; ++q) {
    client->submit(make_command(client->id(), q, "k" + std::to_string(q), "v"));
  }
  simulator.run_until(TimePoint::epoch() + seconds(3));
  // The partitioned replica's DM lane is revoked, so the survivors' global
  // frontier keeps advancing and everything commits.
  EXPECT_EQ(client->committed_count(), 10u);
  EXPECT_EQ(replicas[0]->store().items(), replicas[1]->store().items());
  EXPECT_GT(network.packets_dropped(net::DropReason::kPartition), 0u);

  // After the heal the probe feed refreshes: the replica stops looking
  // stale and DFP becomes estimable again.
  simulator.run_until(TimePoint::epoch() + seconds(5));
  EXPECT_FALSE(client->view().is_stale(rids[2]));
  EXPECT_NE(client->estimates().dfp, Duration::max());
  client->submit(make_command(client->id(), 100, "after", "heal"));
  simulator.run_until(TimePoint::epoch() + seconds(7));
  EXPECT_EQ(client->committed_count(), 11u);
}

TEST_F(FailureCluster, DfpPartitionTimeoutFailsOverToDm) {
  ClientConfig cc;
  cc.mode = ClientConfig::Mode::kDfpOnly;
  cc.additional_delay = milliseconds(1);
  auto dfp_client = std::make_unique<Client>(NodeId{1001}, 3, network, rids, cc);
  dfp_client->attach();
  dfp_client->start();
  dfp_client->set_request_timeout(milliseconds(200), /*max_retries=*/2);
  warmup();
  simulator.run_until(TimePoint::epoch() + seconds(2));

  // Submit a DFP request, then cut the client's DC off from the
  // coordinator's DC while the proposals are in flight: the fast path
  // cannot reach the client (accept notices from A are lost) and neither
  // can the coordinator's slow-path reply.
  dfp_client->submit(make_command(dfp_client->id(), 0, "fo", "dm"));
  simulator.schedule_after(milliseconds(1), [&] {
    network.fault().partition(3, 0);
    network.fault().partition(0, 3);
  });
  simulator.run_until(TimePoint::epoch() + seconds(4));

  // The per-request timeout re-routed the request through DM on a live
  // leader (replica A's feed went stale behind the partition, so it was
  // skipped), and the DM reply reached the client directly.
  EXPECT_EQ(dfp_client->committed_count(), 1u);
  EXPECT_EQ(dfp_client->dfp_failovers(), 1u);
  EXPECT_GE(dfp_client->retry_count(), 1u);
  EXPECT_EQ(replicas[1]->store().get("fo"), "dm");
}

TEST_F(FailureCluster, DmLeaderCrashFailsOverViaTimeout) {
  ClientConfig cc;
  cc.mode = ClientConfig::Mode::kDmOnly;
  auto dm_client = std::make_unique<Client>(NodeId{1001}, 3, network, rids, cc);
  dm_client->attach();
  dm_client->start();
  dm_client->set_request_timeout(milliseconds(150), /*max_retries=*/3);
  warmup();
  simulator.run_until(TimePoint::epoch() + seconds(2));

  // Crash the leader the client is about to use, then submit immediately —
  // before any staleness can be observed, so the requests really do chase
  // the dead leader first.
  const NodeId leader = dm_client->estimates().dm_leader;
  ASSERT_TRUE(leader.valid());
  network.crash(leader);
  for (std::uint64_t q = 0; q < 5; ++q) {
    dm_client->submit(make_command(dm_client->id(), q, "c" + std::to_string(q), "v"));
  }
  simulator.run_until(TimePoint::epoch() + seconds(6));

  // Each request timed out once, and the retry picked a non-stale leader
  // (the dead one's probe feed went quiet within a few probe intervals).
  EXPECT_EQ(dm_client->committed_count(), 5u);
  EXPECT_GE(dm_client->retry_count(), 5u);
  EXPECT_EQ(dm_client->abandoned_count(), 0u);
}

TEST_F(FailureCluster, SustainedLoadAcrossCrash) {
  warmup();
  sm::WorkloadConfig wc;
  wc.num_keys = 30;
  sm::WorkloadGenerator gen(wc, 5);
  client->start_load(gen, 100.0);
  simulator.schedule_after(seconds(2), [&] { network.crash(rids[1]); });
  simulator.run_until(TimePoint::epoch() + seconds(6));
  client->stop_load();
  simulator.run_until(TimePoint::epoch() + seconds(12));
  // Some requests in flight exactly at the crash may be lost with their
  // packets; everything submitted after the failure detector fires commits.
  EXPECT_GT(client->committed_count(), client->submitted_count() * 9 / 10);
  // Survivors converge.
  EXPECT_EQ(replicas[0]->store().items(), replicas[2]->store().items());
}

// n = 5 tolerates f = 2 crash-stop failures. The second replica dies after
// the first one's recovery rounds have asked it for its entries but before
// it replies, so those rounds end only once a later failure-recovery tick
// re-checks them against the shrunken set of live replicas.
TEST(FailureHarness, FiveReplicasSurviveTwoCrashStops) {
  harness::Scenario s;
  s.topology = net::Topology::north_america();
  s.replica_dcs = {0, 1, 2, 3, 4};
  s.client_dcs = {6, 7, 8};
  s.rps = 50;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = seconds(3);
  s.seed = 5;
  s.client_request_timeout = milliseconds(600);
  s.client_max_retries = 6;
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  s.faults.crash(w0 + milliseconds(500), NodeId{3});
  s.faults.crash(w0 + milliseconds(900), NodeId{4});
  const harness::RunResult r = harness::run_protocol(harness::Protocol::kDomino, s);

  ASSERT_EQ(r.replica_applied_counts.size(), 5u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(r.replica_store_fingerprints[i], r.replica_store_fingerprints[0]) << i;
    EXPECT_EQ(r.replica_applied_counts[i], r.replica_applied_counts[0]) << i;
  }
  // At least: a retried request can execute twice (no replica deduplicates
  // retries yet), so the counts may exceed the client acknowledgements.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(r.replica_applied_counts[i], r.client_committed) << i;
  }
}

}  // namespace
}  // namespace domino::core

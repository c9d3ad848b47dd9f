// Log compaction: every protocol drops the state it has executed.
//
//   1. EPaxos compacts each owner's executed instance prefix: a dependency
//      on a compacted instance counts as executed, and a replica that
//      restarts keeps its replayed own-led instances until catch-up ends,
//      so it still re-announces commits the crash kept from its peers, and
//      it installs a peer's snapshot whenever that peer compacted an
//      instance it does not hold.
//   2. Bounded-memory soak: every protocol's replicas retain a small tail
//      of log entries, whether the measure window is 2 s or 8 s.
//
// Labelled `recovery` (with the RunnerGolden digests) so the sanitized gate
// runs it: a reference to an erased entry or instance is what ASan catches.
#include <gtest/gtest.h>

#include <algorithm>

#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "harness/runner.h"
#include "recovery/durable.h"
#include "support/fixtures.h"

namespace domino {
namespace {

struct EpaxosCompaction : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, test::four_dc(), 1};
  recovery::DurableStore durable;  // zero sync latency: exact timings
  std::vector<NodeId> rids = test::replica_ids(3);
  std::vector<std::unique_ptr<epaxos::Replica>> replicas;

  void SetUp() override {
    for (std::size_t i = 0; i < 3; ++i) {
      auto r = std::make_unique<epaxos::Replica>(rids[i], i, network, rids);
      r->attach();
      r->enable_durability(durable);
      replicas.push_back(std::move(r));
    }
    network.set_restart_hook([this](NodeId node) {
      for (auto& r : replicas) {
        if (r->id() == node) r->restart();
      }
    });
  }

  std::unique_ptr<epaxos::Client> make_client(NodeId id, std::size_t dc, NodeId leader) {
    auto c = std::make_unique<epaxos::Client>(id, dc, network, leader);
    c->attach();
    return c;
  }
};

TEST_F(EpaxosCompaction, DependencyOnCompactedInstanceExecutes) {
  auto c0 = make_client(NodeId{1000}, 0, rids[0]);
  c0->submit(test::make_command(c0->id(), 0, "k", "first"));
  simulator.run();
  for (const auto& r : replicas) {
    ASSERT_EQ(r->executed_count(), 1u);
    EXPECT_EQ(r->retained_entries(), 0u);  // executed and compacted
  }
  // A second leader writes the same key: its command depends on the
  // compacted instance, which must count as executed rather than block.
  auto c1 = make_client(NodeId{1001}, 1, rids[1]);
  c1->submit(test::make_command(c1->id(), 0, "k", "second"));
  simulator.run();
  EXPECT_EQ(c1->committed_count(), 1u);
  for (const auto& r : replicas) {
    EXPECT_EQ(r->executed_count(), 2u);
    EXPECT_EQ(r->retained_entries(), 0u);
    EXPECT_EQ(r->store().get("k"), "second");
  }
}

// The leader commits X, but its Commit broadcasts die in a partition; it
// crashes and restarts amnesiacally. Replay re-executes X and catch-up
// runs against peers that only pre-accepted it. An earlier instance W is
// executed everywhere, so the peers answer with a non-zero frontier for
// the leader and X sits just above it. Had the leader compacted during
// replay, X would be gone before the re-announce loop reads it, and the
// peers would never learn X.
TEST_F(EpaxosCompaction, RestartMidCatchupReannouncesOwnCommits) {
  auto client = make_client(NodeId{1000}, 0, rids[0]);
  const TimePoint t0 = TimePoint::epoch();
  simulator.schedule_at(t0, [&] {
    client->submit(test::make_command(client->id(), 0, "w", "vw"));
  });
  simulator.schedule_at(t0 + milliseconds(100), [&] {
    client->submit(test::make_command(client->id(), 1, "x", "vx"));
  });
  // The fast-quorum reply from B lands at ~t+120 ms; cut the leader's
  // outgoing links to B and C just before, so its Commit broadcast is lost.
  simulator.schedule_at(t0 + milliseconds(115), [&] {
    network.fault().partition(0, 1);
    network.fault().partition(0, 2);
  });
  simulator.schedule_at(t0 + milliseconds(200), [&] { network.fault().crash(rids[0]); });
  simulator.schedule_at(t0 + milliseconds(250), [&] {
    network.fault().heal(0, 1);
    network.fault().heal(0, 2);
  });
  simulator.schedule_at(t0 + milliseconds(300), [&] { network.fault().recover(rids[0]); });
  simulator.schedule_at(t0 + milliseconds(170), [&] {
    // Before the crash: the leader committed X and answered the client,
    // but the peers never saw X committed.
    EXPECT_EQ(client->committed_count(), 2u);
    EXPECT_EQ(replicas[1]->executed_count(), 1u);
    EXPECT_EQ(replicas[2]->executed_count(), 1u);
  });
  simulator.run_until(t0 + seconds(2));

  EXPECT_EQ(client->committed_count(), 2u);
  EXPECT_EQ(durable.aggregate().restarts, 1u);
  for (const auto& r : replicas) {
    EXPECT_FALSE(r->catching_up());
    EXPECT_EQ(r->store().get("w"), "vw");
    EXPECT_EQ(r->store().get("x"), "vx") << "replica " << r->id().value();
    EXPECT_EQ(r->retained_entries(), 0u) << "replica " << r->id().value();
  }
}

// The restarted replica's replay applied as many commands as its peer:
// C's Y, committed at A just before A crashed, whose Commit to B was lost;
// B meanwhile committed, executed and compacted its own X, whose Commit to
// A was lost while A was down. B's catch-up reply can no longer ship X,
// only its frontier and snapshot, so A must install that snapshot despite
// the equal applied counts, and run Y again on top of it. Otherwise A
// never learns X: a later command that depends on X waits forever.
TEST_F(EpaxosCompaction, RestartWithEqualAppliedCountAdoptsCompactedInstances) {
  auto client_b = make_client(NodeId{1001}, 1, rids[1]);
  auto client_c = make_client(NodeId{1002}, 2, rids[2]);
  const TimePoint t0 = TimePoint::epoch();
  simulator.schedule_at(t0, [&] {
    network.fault().partition(2, 1);  // B never hears of Y
    client_c->submit(test::make_command(client_c->id(), 0, "y", "vy"));
  });
  simulator.schedule_at(t0 + milliseconds(250), [&] { network.fault().heal(2, 1); });
  simulator.schedule_at(t0 + milliseconds(300), [&] {
    ASSERT_EQ(replicas[0]->executed_count(), 1u);  // Y is durable at A
    network.fault().crash(rids[0]);
  });
  simulator.schedule_at(t0 + milliseconds(400), [&] {
    client_b->submit(test::make_command(client_b->id(), 0, "x", "vx"));
  });
  simulator.schedule_at(t0 + milliseconds(600), [&] {
    ASSERT_EQ(replicas[1]->retained_entries(), 0u);  // X executed and compacted
    ASSERT_EQ(replicas[1]->store().applied_count(), 1u);
    network.fault().recover(rids[0]);
  });
  auto client_a = make_client(NodeId{1000}, 0, rids[0]);
  simulator.schedule_at(t0 + milliseconds(1000), [&] {
    ASSERT_FALSE(replicas[0]->catching_up());
    client_a->submit(test::make_command(client_a->id(), 0, "x", "vx2"));
  });
  simulator.run_until(t0 + seconds(3));

  EXPECT_EQ(durable.aggregate().restarts, 1u);
  EXPECT_EQ(client_a->committed_count(), 1u);
  const sm::KvStore& a = replicas[0]->store();
  EXPECT_EQ(a.get("y"), "vy");
  EXPECT_EQ(a.get("x"), "vx2");
  EXPECT_EQ(a.applied_count(), 3u);  // X (in the snapshot), Y, then X2
  EXPECT_EQ(replicas[0]->retained_entries(), 0u);
  EXPECT_EQ(replicas[1]->store().get("x"), "vx2");
  EXPECT_EQ(replicas[2]->store().get("x"), "vx2");
  EXPECT_EQ(replicas[2]->store().get("y"), "vy");
}

harness::Scenario soak_scenario(Duration measure) {
  harness::Scenario s;
  s.topology = net::Topology::globe();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("PR"),
                   s.topology.index_of("NSW")};
  s.client_dcs = {0, 1, 2, 3, 4, 5};
  s.rps = 100;
  s.warmup = seconds(1);
  s.measure = measure;
  s.cooldown = seconds(2);
  s.seed = 17;
  return s;
}

class CompactionSoak : public ::testing::TestWithParam<harness::Protocol> {};

TEST_P(CompactionSoak, RetainedEntriesDoNotGrowWithRunLength) {
  const harness::RunResult short_run =
      harness::run_protocol(GetParam(), soak_scenario(seconds(2)));
  const harness::RunResult long_run =
      harness::run_protocol(GetParam(), soak_scenario(seconds(8)));
  ASSERT_GT(long_run.committed, 3 * short_run.committed);
  ASSERT_EQ(short_run.replica_retained_entries.size(), 3u);
  ASSERT_EQ(long_run.replica_retained_entries.size(), 3u);
  // Four times the history (1,794 and 5,394 executed commands per replica),
  // and both runs retain only a tail of a few entries, bounded independently
  // of the run's length. For Fast Paxos the count also takes in the
  // coordinator's tallies, the acceptors' assignments and the recovery
  // picks. Its far acceptor keeps a handful of ballot-0 assignments past the
  // last decided index (21 and 25 here): positions only it used, which the
  // coordinator, holding one tally each, never gets enough reports to
  // resolve. Every other protocol retains nothing once the cool-down has
  // drained.
  constexpr std::uint64_t kInFlightTail = 32;
  const auto max_of = [](const std::vector<std::uint64_t>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  EXPECT_LE(max_of(short_run.replica_retained_entries), kInFlightTail);
  EXPECT_LE(max_of(long_run.replica_retained_entries), kInFlightTail);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(long_run.replica_applied_counts[i], long_run.replica_applied_counts[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CompactionSoak,
                         ::testing::Values(harness::Protocol::kMultiPaxos,
                                           harness::Protocol::kMencius,
                                           harness::Protocol::kEPaxos,
                                           harness::Protocol::kFastPaxos,
                                           harness::Protocol::kDomino),
                         [](const ::testing::TestParamInfo<harness::Protocol>& info) {
                           std::string name = harness::protocol_name(info.param);
                           for (char& ch : name) {
                             if (ch == ' ' || ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace domino

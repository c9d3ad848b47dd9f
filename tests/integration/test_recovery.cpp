// Amnesia-aware crash recovery suite (ctest -L recovery).
//
// Three layers of coverage:
//   1. Scenario-driven amnesia sweep — every protocol runs with durable
//      state and a staggered fault schedule that crashes each replica once
//      (amnesiacally: the restart hook wipes volatile state, the replica
//      replays its durable image and catches up from live peers). The suite
//      asserts liveness, store convergence of the recovered replicas,
//      populated recovery accounting, and run-to-run determinism (equal
//      fault digests).
//   2. Fault-free durability control — enabling the durable store with a
//      non-zero sync latency must not break a healthy run or fabricate
//      recovery events.
//   3. Negative test — a scripted Multi-Paxos schedule in which the leader's
//      durable log is deliberately weakened (appends silently dropped, a
//      forgotten fsync). A client-acknowledged commit is then lost across
//      an amnesiac leader restart, and the lost-commit consistency checker
//      must catch it; the identical schedule with intact durability passes.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/client.h"
#include "core/replica.h"
#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "harness/run_report.h"
#include "harness/runner.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "obs/chrome_trace.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "recovery/durable.h"
#include "support/fixtures.h"

namespace domino::harness {
namespace {

Scenario amnesia_scenario(std::uint64_t seed) {
  Scenario s;
  s.topology = net::Topology::north_america();
  s.replica_dcs = {s.topology.index_of("WA"), s.topology.index_of("VA"),
                   s.topology.index_of("QC")};
  s.client_dcs = {s.topology.index_of("IA"), s.topology.index_of("TX")};
  s.rps = 30;
  s.warmup = seconds(1);
  s.measure = seconds(3);
  // Generous drain window: a request submitted at the end of the window may
  // still ride out a crash plus several retries.
  s.cooldown = seconds(4);
  s.seed = seed;
  s.workload.num_keys = 40;
  s.workload.zipf_alpha = 0.75;
  s.client_request_timeout = milliseconds(300);
  s.client_max_retries = 8;
  s.amnesia_crashes = true;
  s.sync_latency = milliseconds(2);
  // Windowed telemetry + steady-state detector: every sweep run reports a
  // time-to-steady-state per fault instant (commit rate back within
  // tolerance of the pre-fault baseline for K consecutive windows).
  s.timeseries_interval = milliseconds(150);
  s.slo.steady_metric = "client.committed";
  s.slo.steady_tolerance = 0.75;
  s.slo.steady_windows = 2;
  return s;
}

/// Crash every replica once, staggered so at most one is down at any time
/// (the majority stays live) and each window stays well below the 500 ms
/// failure detector — no revoke/takeover rounds trigger mid-sweep, the
/// crashes exercise pure amnesiac recovery.
net::FaultSchedule amnesia_schedule(const Scenario& s) {
  net::FaultSchedule f;
  const TimePoint w0 = TimePoint::epoch() + s.warmup;
  for (std::size_t i = 0; i < s.replica_dcs.size(); ++i) {
    f.crash_for(w0 + milliseconds(400 + 900 * static_cast<std::int64_t>(i)),
                NodeId{static_cast<std::uint32_t>(i)},
                milliseconds(250 + 25 * static_cast<std::int64_t>(i)));
  }
  return f;
}

// gtest prints a parameter without a PrintTo as its raw bytes, and that
// text becomes part of the listed test name. The explicit zero field keeps
// the bytes between the 4-byte enum and the 8-byte seed from being stack
// garbage, so the names are the same on every build.
struct RecoveryCase {
  RecoveryCase(Protocol p, std::uint64_t s) : protocol(p), seed(s) {}
  Protocol protocol;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RecoveryCase>,
              "RecoveryCase must have no padding bytes");

class AmnesiaSweep : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(AmnesiaSweep, RecoversConvergesAndStaysDeterministic) {
  const RecoveryCase c = GetParam();
  Scenario s = amnesia_scenario(c.seed);
  s.faults = amnesia_schedule(s);

  const RunResult a = run_protocol(c.protocol, s);
  const RunResult b = run_protocol(c.protocol, s);

  // -- Liveness: every crash healed, retries were generous; everything the
  // clients submitted commits.
  EXPECT_GT(a.committed, 0u);
  EXPECT_EQ(a.client_abandoned, 0u);
  EXPECT_EQ(a.client_inflight_end, 0u);
  EXPECT_EQ(a.submitted,
            a.client_committed + a.client_abandoned + a.client_inflight_end);
  EXPECT_GT(a.packets_dropped, 0u);

  // -- Recovery actually happened, and its accounting is populated: every
  // replica restarted amnesiacally, replayed a non-empty durable image, and
  // rejoined.
  EXPECT_EQ(a.recovery.restarts, s.replica_dcs.size());
  EXPECT_GT(a.recovery.persisted_records, 0u);
  EXPECT_GT(a.recovery.persisted_bytes, 0u);
  EXPECT_GT(a.recovery.replayed_records, 0u);
  EXPECT_GT(a.recovery.rejoin_ns_total, 0);
  EXPECT_GT(a.recovery_downtime_ns, 0);

  // -- Consistency: every replica recovered long before the run ended, so
  // all stores — including the restarted ones — converge.
  ASSERT_EQ(a.replica_store_fingerprints.size(), s.replica_dcs.size());
  for (std::size_t i = 1; i < a.replica_store_fingerprints.size(); ++i) {
    EXPECT_EQ(a.replica_store_fingerprints[i], a.replica_store_fingerprints[0])
        << "replica " << i << " diverged after amnesiac recovery";
  }

  // -- Determinism: same seed + schedule => byte-identical fault/drop
  // behaviour and identical end-to-end results, including the recovery
  // accounting.
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.client_committed, b.client_committed);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.replica_store_fingerprints, b.replica_store_fingerprints);
  EXPECT_EQ(a.recovery.restarts, b.recovery.restarts);
  EXPECT_EQ(a.recovery.persisted_records, b.recovery.persisted_records);
  EXPECT_EQ(a.recovery.persisted_bytes, b.recovery.persisted_bytes);
  EXPECT_EQ(a.recovery.replayed_records, b.recovery.replayed_records);
  EXPECT_EQ(a.recovery.replayed_bytes, b.recovery.replayed_bytes);
  EXPECT_EQ(a.recovery.catchup_installs, b.recovery.catchup_installs);
  EXPECT_EQ(a.recovery.catchup_bytes, b.recovery.catchup_bytes);
  EXPECT_EQ(a.recovery.rejoin_ns_total, b.recovery.rejoin_ns_total);
  EXPECT_EQ(a.recovery_downtime_ns, b.recovery_downtime_ns);

  // -- Time-to-steady-state: the SLO engine reports a finite settle time
  // for every crash and recovery instant (the commit rate returns to the
  // pre-fault baseline before the load window ends), and the verdicts are
  // deterministic across same-seed runs.
  ASSERT_NE(a.timeseries, nullptr);
  ASSERT_EQ(a.slo.steady.size(), 2 * s.replica_dcs.size());
  for (const obs::SteadyStateResult& st : a.slo.steady) {
    EXPECT_TRUE(st.reached)
        << "no steady state after " << st.fault.kind << " of "
        << st.fault.node.to_string() << " at " << st.fault.at.to_string();
    EXPECT_GT(st.time_to_steady, Duration::zero());
    EXPECT_GT(st.baseline, 0.0);
  }
  ASSERT_EQ(b.slo.steady.size(), a.slo.steady.size());
  for (std::size_t i = 0; i < a.slo.steady.size(); ++i) {
    EXPECT_EQ(a.slo.steady[i].reached, b.slo.steady[i].reached);
    EXPECT_EQ(a.slo.steady[i].time_to_steady.nanos(),
              b.slo.steady[i].time_to_steady.nanos());
    EXPECT_EQ(a.slo.steady[i].settle_window, b.slo.steady[i].settle_window);
  }

  // -- RunResult's counts are the registry's: a restart wipes replica state,
  // not the run's accounting.
  ASSERT_NE(a.metrics, nullptr);
  const auto counter = [&a](const std::string& name) {
    const obs::Counter* c = a.metrics->find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value();
  };
  const std::map<Protocol, std::string> commit_prefix = {
      {Protocol::kEPaxos, "epaxos."},
      {Protocol::kFastPaxos, "fastpaxos."},
      {Protocol::kDomino, "domino.dfp."}};
  if (const auto it = commit_prefix.find(c.protocol); it != commit_prefix.end()) {
    EXPECT_EQ(a.fast_path, counter(it->second + "fast_commits"));
    EXPECT_EQ(a.slow_path, counter(it->second + "slow_commits"));
  } else {
    EXPECT_EQ(a.fast_path, 0u);
    EXPECT_EQ(a.slow_path, 0u);
  }
  EXPECT_EQ(a.dfp_chosen, counter("domino.client.dfp_chosen"));
  EXPECT_EQ(a.dm_chosen, counter("domino.client.dm_chosen"));
  EXPECT_EQ(a.client_retries, counter("client.retries"));
  EXPECT_EQ(a.recovery.restarts, counter("recovery.restarts"));
  EXPECT_EQ(a.recovery.persisted_records, counter("recovery.persist_records"));
  EXPECT_EQ(a.recovery.persisted_bytes, counter("recovery.persist_bytes"));
  EXPECT_EQ(a.recovery.replayed_records, counter("recovery.replay_records"));
  EXPECT_EQ(a.recovery.replayed_bytes, counter("recovery.replay_bytes"));
  EXPECT_EQ(a.recovery.catchup_installs, counter("recovery.catchup_installs"));
  EXPECT_EQ(a.recovery.catchup_bytes, counter("recovery.catchup_bytes"));
  const obs::Histogram* rejoin = a.metrics->find_histogram("recovery.time_to_rejoin_ns");
  ASSERT_NE(rejoin, nullptr);
  EXPECT_EQ(rejoin->count(), a.recovery.restarts);
  EXPECT_EQ(rejoin->sum(), static_cast<double>(a.recovery.rejoin_ns_total));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, AmnesiaSweep,
    ::testing::Values(
        RecoveryCase{Protocol::kMultiPaxos, 21}, RecoveryCase{Protocol::kMultiPaxos, 22},
        RecoveryCase{Protocol::kMencius, 21}, RecoveryCase{Protocol::kMencius, 22},
        RecoveryCase{Protocol::kEPaxos, 21}, RecoveryCase{Protocol::kEPaxos, 22},
        RecoveryCase{Protocol::kFastPaxos, 21}, RecoveryCase{Protocol::kFastPaxos, 22},
        RecoveryCase{Protocol::kDomino, 21}, RecoveryCase{Protocol::kDomino, 22}),
    [](const ::testing::TestParamInfo<RecoveryCase>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_amnesia" + std::to_string(info.param.seed);
    });

// Fault-free control: durable storage with a non-zero sync latency slows
// the commit path but must not break a healthy run or fabricate restarts.
TEST(RecoveryControl, FaultFreeDurableRunStaysHealthy) {
  Scenario s = amnesia_scenario(31);
  ASSERT_TRUE(s.faults.empty());
  for (const Protocol p :
       {Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
        Protocol::kFastPaxos, Protocol::kDomino}) {
    const RunResult r = run_protocol(p, s);
    EXPECT_GT(r.committed, 0u) << protocol_name(p);
    EXPECT_EQ(r.submitted, r.client_committed) << protocol_name(p);
    EXPECT_EQ(r.recovery.restarts, 0u) << protocol_name(p);
    EXPECT_EQ(r.recovery.replayed_records, 0u) << protocol_name(p);
    EXPECT_EQ(r.recovery.catchup_installs, 0u) << protocol_name(p);
    EXPECT_EQ(r.recovery_downtime_ns, 0) << protocol_name(p);
    // The protocols did persist along the way.
    EXPECT_GT(r.recovery.persisted_records, 0u) << protocol_name(p);
    for (std::size_t i = 1; i < r.replica_store_fingerprints.size(); ++i) {
      EXPECT_EQ(r.replica_store_fingerprints[i], r.replica_store_fingerprints[0])
          << protocol_name(p);
    }
  }
}

// The run report surfaces the recovery accounting as a stable JSON block.
TEST(RecoveryControl, RunReportCarriesRecoveryBlock) {
  Scenario s = amnesia_scenario(33);
  s.measure = seconds(2);
  s.cooldown = seconds(3);
  s.faults = amnesia_schedule(s);
  const RunResult r = run_multipaxos(s);
  const std::string json = report_json(Protocol::kMultiPaxos, s, r);
  EXPECT_NE(json.find("\"recovery\":{\"restarts\":" + std::to_string(r.recovery.restarts) +
                      ","),
            std::string::npos);
  EXPECT_NE(json.find("\"replayed_records\":"), std::string::npos);
  EXPECT_NE(json.find("\"downtime_ns\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Negative test: weakened durability loses an acknowledged commit, and the
// lost-commit checker catches it.
//
// The scripted schedule (constant-latency four_dc topology, OWDs in ms:
// client D->leader A 30, A->B 10, A->C 20):
//   t=0      client submits X        (arrives at the leader at t=30)
//   t=45ms   partition A->B and A->C (the Accepts, sent at t=30, already
//            arrived at B; B's ack reaches A at t=50)
//   t=50ms   leader commits X on {A, B}, answers the client (t=80) — but
//            its Commit broadcasts die in the partition, so the followers
//            only ever saw X as accepted, never committed
//   t=100ms  leader crashes
//   t=150ms  partitions heal
//   t=200ms  leader recovers; the restart hook wipes it, replay + catch-up
//            run against B and C (which know no commits)
//   t=300ms  client submits Y
// With the leader's durable log weakened, replay restores nothing: the
// leader reuses index 0 for Y, the followers overwrite their accepted X,
// and X — whose commit the client observed at t=80 — is gone from every
// store. With intact durability, replay restores X's commit record, Y goes
// to index 1, and nothing is lost.
// ---------------------------------------------------------------------------

struct ScriptResult {
  std::vector<sm::Command> acknowledged;           // commit observed by the client
  std::vector<std::unordered_map<std::string, std::string>> stores;
  std::vector<RequestId> lost;                     // checker output
  std::uint64_t client_committed = 0;
};

ScriptResult run_weakened_leader_script(bool weaken) {
  sim::Simulator simulator;
  net::Network network(simulator, test::four_dc(), /*seed=*/1);
  recovery::DurableStore durable;  // zero sync latency: exact timings
  const std::vector<NodeId> rids = test::replica_ids(3);

  std::vector<std::unique_ptr<paxos::Replica>> replicas;
  for (std::size_t i = 0; i < 3; ++i) {
    auto r = std::make_unique<paxos::Replica>(rids[i], i, network, rids, rids[0]);
    r->attach();
    r->enable_durability(durable);
    replicas.push_back(std::move(r));
  }
  if (weaken) durable.weaken(rids[0]);
  network.set_restart_hook([&replicas](NodeId node) {
    for (auto& r : replicas) {
      if (r->id() == node) r->restart();
    }
  });

  paxos::Client client(NodeId{1000}, 3, network, rids[0]);
  client.attach();
  std::unordered_map<std::uint64_t, sm::Command> submitted;  // seq -> command
  ScriptResult out;
  client.set_commit_hook([&](const RequestId& id, TimePoint, TimePoint) {
    out.acknowledged.push_back(submitted.at(id.seq));
  });

  const TimePoint t0 = TimePoint::epoch();
  const sm::Command x = test::make_command(client.id(), 0, "x", "vx");
  const sm::Command y = test::make_command(client.id(), 1, "y", "vy");
  submitted[0] = x;
  submitted[1] = y;
  simulator.schedule_at(t0, [&] { client.submit(x); });
  simulator.schedule_at(t0 + milliseconds(45), [&] {
    network.fault().partition(0, 1);
    network.fault().partition(0, 2);
  });
  simulator.schedule_at(t0 + milliseconds(100),
                        [&] { network.fault().crash(rids[0]); });
  simulator.schedule_at(t0 + milliseconds(150), [&] {
    network.fault().heal(0, 1);
    network.fault().heal(0, 2);
  });
  simulator.schedule_at(t0 + milliseconds(200),
                        [&] { network.fault().recover(rids[0]); });
  simulator.schedule_at(t0 + milliseconds(300), [&] { client.submit(y); });
  simulator.run_until(t0 + seconds(1));

  std::vector<const sm::KvStore*> stores;
  for (const auto& r : replicas) {
    stores.push_back(&r->store());
    out.stores.push_back(r->store().items());
  }
  out.lost = test::lost_commits(out.acknowledged, stores);
  out.client_committed = client.committed_count();
  return out;
}

TEST(WeakenedDurability, CheckerCatchesLostAcknowledgedCommit) {
  const ScriptResult r = run_weakened_leader_script(/*weaken=*/true);
  // The client really observed both commits...
  ASSERT_EQ(r.client_committed, 2u);
  ASSERT_EQ(r.acknowledged.size(), 2u);
  // ...yet X vanished from every replica: the weakened leader forgot it
  // across the amnesiac restart and recycled its log index. The checker
  // must flag exactly that command.
  ASSERT_EQ(r.lost.size(), 1u);
  EXPECT_EQ(r.lost[0].seq, 0u);
  for (const auto& items : r.stores) {
    EXPECT_EQ(items.find("x"), items.end());
  }
}

TEST(WeakenedDurability, IntactDurabilitySurvivesSameSchedule) {
  const ScriptResult r = run_weakened_leader_script(/*weaken=*/false);
  ASSERT_EQ(r.client_committed, 2u);
  // Replay restored X's commit record: no acknowledged commit was lost.
  EXPECT_TRUE(r.lost.empty());
  // The recovered leader re-executed X from its durable image.
  EXPECT_NE(r.stores[0].find("x"), r.stores[0].end());
  EXPECT_NE(r.stores[0].find("y"), r.stores[0].end());
}

// ---------------------------------------------------------------------------
// The rejoin lifecycle under isolation, for every protocol: an idle
// three-replica cluster on four_dc, replica 1 (DC B) crashes at 20 ms, its
// DC is partitioned both ways from A and C at 30 ms, it recovers
// amnesiacally at 100 ms and the partitions heal at 450 ms. The restarted
// replica must keep catching up while isolated, re-send its CatchupRequests
// every 100 ms (at 100, 200, 300, 400 and 500 ms: two peers each), and
// rejoin on the first reply after the heal, with one start and one done
// incident.
// ---------------------------------------------------------------------------

struct IsolatedCluster {
  sim::Simulator simulator;
  net::Network network{simulator, test::four_dc(), 1};
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  recovery::DurableStore durable;
  std::vector<NodeId> rids = test::replica_ids(3);
  std::vector<std::unique_ptr<recovery::Replica>> replicas;

  explicit IsolatedCluster(Protocol protocol) {
    const obs::Sink sink{&metrics, &trace, nullptr, nullptr};
    simulator.bind_obs(sink);
    network.bind_obs(sink);
    durable.bind_obs(sink);
    network.set_restart_hook([this](NodeId node) {
      if (node == rids[1]) isolated().restart();
    });
    for (std::size_t dc = 0; dc < rids.size(); ++dc) {
      replicas.push_back(make_replica(protocol, rids[dc], dc));
      replicas.back()->attach();
      replicas.back()->enable_durability(durable);
    }
  }

  std::unique_ptr<recovery::Replica> make_replica(Protocol protocol, NodeId id,
                                                  std::size_t dc) {
    switch (protocol) {
      case Protocol::kMultiPaxos:
        return std::make_unique<paxos::Replica>(id, dc, network, rids, rids[0]);
      case Protocol::kMencius:
        return std::make_unique<mencius::Replica>(id, dc, network, rids);
      case Protocol::kEPaxos:
        return std::make_unique<epaxos::Replica>(id, dc, network, rids);
      case Protocol::kFastPaxos:
        return std::make_unique<fastpaxos::Replica>(id, dc, network, rids, rids[0]);
      case Protocol::kDomino:
        return std::make_unique<core::Replica>(id, dc, network, rids, rids[0]);
    }
    return nullptr;
  }

  /// Replica 1, the one that restarts.
  [[nodiscard]] recovery::Replica& isolated() { return *replicas[1]; }

  [[nodiscard]] std::uint64_t catchup_requests_sent() const {
    const obs::Histogram* h = metrics.find_histogram("rpc.sent_bytes.CatchupRequest");
    return h == nullptr ? 0 : h->count();
  }
};

class RecoveryControl : public ::testing::TestWithParam<Protocol> {};

TEST_P(RecoveryControl, IsolatedRestartRetriesUntilHealed) {
  IsolatedCluster c(GetParam());
  const std::vector<NodeId>& rids = c.rids;
  net::Network& network = c.network;

  const TimePoint t0 = TimePoint::epoch();
  c.simulator.schedule_at(t0 + milliseconds(20), [&] { network.fault().crash(rids[1]); });
  c.simulator.schedule_at(t0 + milliseconds(30), [&] {
    for (const std::size_t peer : {std::size_t{0}, std::size_t{2}}) {
      network.fault().partition(1, peer);
      network.fault().partition(peer, 1);
    }
  });
  c.simulator.schedule_at(t0 + milliseconds(100),
                          [&] { network.fault().recover(rids[1]); });
  c.simulator.schedule_at(t0 + milliseconds(450), [&] {
    for (const std::size_t peer : {std::size_t{0}, std::size_t{2}}) {
      network.fault().heal(1, peer);
      network.fault().heal(peer, 1);
    }
  });
  // Between retries: two requests (one per peer) per 100 ms tick so far,
  // and no reply can have got through.
  std::vector<std::pair<bool, std::uint64_t>> samples;
  for (const std::int64_t at : {150, 250, 350, 440}) {
    c.simulator.schedule_at(t0 + milliseconds(at), [&] {
      samples.emplace_back(c.isolated().catching_up(), c.catchup_requests_sent());
    });
  }
  c.simulator.run_until(t0 + seconds(1));

  ASSERT_EQ(samples.size(), 4u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_TRUE(samples[i].first) << "rejoined while isolated, sample " << i;
    EXPECT_EQ(samples[i].second, 2 * (i + 1)) << "sample " << i;
  }
  EXPECT_FALSE(c.isolated().catching_up());
  // The 500 ms retry is the first to cross the healed links; its reply
  // ends catch-up before the next tick.
  EXPECT_EQ(c.catchup_requests_sent(), 10u);

  std::size_t starts = 0;
  std::size_t dones = 0;
  for (const obs::TraceEvent& e : c.trace.events()) {
    if (e.node != rids[1]) continue;
    if (e.kind == obs::EventKind::kRecoveryStart) ++starts;
    if (e.kind == obs::EventKind::kRecoveryDone) ++dones;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(dones, 1u);
  const recovery::RecoveryStats stats = c.durable.aggregate();
  EXPECT_EQ(stats.restarts, 1u);
  // Restart at 100 ms; the 500 ms retry reaches A (10 ms one way) and A's
  // reply is back at 520 ms.
  EXPECT_EQ(stats.rejoin_ns_total, 420'000'000);
}


// A catch-up reply is tied to the restart that asked for it. Replica 1 (DC
// B) restarts at 100 ms and again at 110 ms without crashing. The epoch-1
// reply from A (20 ms RTT) lands at 120 ms and must be dropped: the replica
// is still catching up at 125 ms and rejoins on A's epoch-2 reply at 130 ms,
// 20 ms after the restart that counts.
TEST_P(RecoveryControl, StaleEpochCatchupReplyIsIgnored) {
  IsolatedCluster c(GetParam());
  const TimePoint t0 = TimePoint::epoch();
  c.simulator.schedule_at(t0 + milliseconds(100), [&] { c.isolated().restart(); });
  c.simulator.schedule_at(t0 + milliseconds(110), [&] { c.isolated().restart(); });
  bool catching_up_at_125 = false;
  c.simulator.schedule_at(t0 + milliseconds(125),
                          [&] { catching_up_at_125 = c.isolated().catching_up(); });
  c.simulator.run_until(t0 + milliseconds(300));

  EXPECT_TRUE(catching_up_at_125) << "rejoined on the epoch-1 reply";
  EXPECT_FALSE(c.isolated().catching_up());
  const recovery::RecoveryStats stats = c.durable.aggregate();
  EXPECT_EQ(stats.restarts, 2u);
  EXPECT_EQ(stats.rejoin_ns_total, 20'000'000);
}

/// A client of `protocol` in datacenter `dc`. Mencius and EPaxos clients
/// propose to replica C, the one nearest D, where the test places them.
std::unique_ptr<rpc::ClientBase> make_client(Protocol protocol, NodeId id, std::size_t dc,
                                             net::Network& network,
                                             const std::vector<NodeId>& rids) {
  switch (protocol) {
    case Protocol::kMultiPaxos:
      return std::make_unique<paxos::Client>(id, dc, network, rids[0]);
    case Protocol::kMencius:
      return std::make_unique<mencius::Client>(id, dc, network, rids[2]);
    case Protocol::kEPaxos:
      return std::make_unique<epaxos::Client>(id, dc, network, rids[2]);
    case Protocol::kFastPaxos:
      return std::make_unique<fastpaxos::Client>(id, dc, network, rids);
    case Protocol::kDomino:
      return std::make_unique<core::Client>(id, dc, network, rids);
  }
  return nullptr;
}

// The content of every durable record, pinned per protocol. Three started
// replicas and one client in D submit 20 commands, one every 15 ms from
// 1 s; replica 1 crashes at 1.1 s and restarts amnesiacally at 1.2 s. The
// FNV-1a digest over every replica's durable log (tag, then body) was
// recorded from a known-good build, so a record layout that changes in
// both the writer and the replay still fails here. RunnerGolden pins only
// the records' total size.
TEST_P(RecoveryControl, DurableImageUnchanged) {
  IsolatedCluster c(GetParam());
  for (const auto& r : c.replicas) r->start();
  const auto client = make_client(GetParam(), NodeId{1000}, 3, c.network, c.rids);
  client->attach();
  client->start();
  client->set_request_timeout(milliseconds(300));

  const TimePoint t0 = TimePoint::epoch() + seconds(1);
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    c.simulator.schedule_at(t0 + milliseconds(15) * static_cast<std::int64_t>(seq),
                            [&, seq] {
                              client->submit(test::make_command(
                                  client->id(), seq, "k" + std::to_string(seq % 4),
                                  "v" + std::to_string(seq)));
                            });
  }
  c.simulator.schedule_at(t0 + milliseconds(100),
                          [&] { c.network.fault().crash(c.rids[1]); });
  c.simulator.schedule_at(t0 + milliseconds(200),
                          [&] { c.network.fault().recover(c.rids[1]); });
  c.simulator.run_until(t0 + seconds(3));

  std::uint64_t digest = 14695981039346656037ULL;
  const auto fold = [&digest](std::uint8_t b) {
    digest ^= b;
    digest *= 1099511628211ULL;
  };
  std::map<recovery::RecordTag, std::size_t> per_tag;
  for (const NodeId r : c.rids) {
    for (const recovery::DurableRecord& rec : c.durable.log_of(r).records()) {
      ++per_tag[rec.tag];
      fold(static_cast<std::uint8_t>(rec.tag));
      for (const std::uint8_t b : rec.body) fold(b);
    }
  }
  EXPECT_GT(per_tag[recovery::RecordTag::kAccepted], 0u);
  EXPECT_GT(per_tag[recovery::RecordTag::kCommitted], 0u);
  EXPECT_EQ(c.durable.aggregate().restarts, 1u);
  EXPECT_EQ(client->committed_count(), 20u);

  const std::map<Protocol, std::uint64_t> expected = {
      {Protocol::kMultiPaxos, 6139655317907051543ULL},
      {Protocol::kMencius, 13267213117079613118ULL},
      {Protocol::kEPaxos, 15063568828888709982ULL},
      {Protocol::kFastPaxos, 7987404132429222543ULL},
      {Protocol::kDomino, 1484857859358333261ULL},
  };
  EXPECT_EQ(digest, expected.at(GetParam())) << protocol_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, RecoveryControl,
    ::testing::Values(Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
                      Protocol::kFastPaxos, Protocol::kDomino),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name = protocol_name(info.param);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// The --recovery gate smoke-feeds this Chrome-trace export to
// scripts/trace_summary.py, which renders the per-node recovery intervals.
TEST(RecoveryControl, WritesChromeTraceSampleForTooling) {
  Scenario s = amnesia_scenario(35);
  s.measure = seconds(2);
  s.cooldown = seconds(3);
  s.faults = amnesia_schedule(s);
  const RunResult r = run_multipaxos(s);
  const std::string json = obs::chrome_trace_json(r.spans.get(), r.trace.get());
  // Every replica bounced once, so the export carries the crash/recover
  // instants and one rejoin slice per node.
  EXPECT_NE(json.find("\"name\":\"node_crash\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node_recover\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"recovery\""), std::string::npos);
  std::ofstream out("recovery_trace_sample.json", std::ios::binary);
  ASSERT_TRUE(out.good());
  out << json;
  out.close();
}

}  // namespace
}  // namespace domino::harness

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
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/run_report.h"
#include "harness/runner.h"
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

struct RecoveryCase {
  Protocol protocol;
  std::uint64_t seed;
};

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

  // -- The recovery.* metrics mirror the aggregate accounting.
  ASSERT_NE(a.metrics, nullptr);
  const obs::Counter* restarts = a.metrics->find_counter("recovery.restarts");
  ASSERT_NE(restarts, nullptr);
  EXPECT_EQ(restarts->value(), a.recovery.restarts);
  const obs::Counter* persisted = a.metrics->find_counter("recovery.persist_records");
  ASSERT_NE(persisted, nullptr);
  EXPECT_EQ(persisted->value(), a.recovery.persisted_records);
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

// FaultInjector / FaultSchedule unit tests: drop reasons, link partitions,
// degradation epochs, route changes, FIFO-channel reset on recovery, and
// scheduling determinism (same seed + schedule => identical drop/deliver
// behaviour and digest).
#include "net/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace domino::net {
namespace {

Topology two_dc() { return Topology{{"A", "B"}, {{0.0, 10.0}, {10.0, 0.0}}}; }

Topology three_dc() {
  return Topology{{"A", "B", "C"},
                  {{0.0, 10.0, 20.0}, {10.0, 0.0, 30.0}, {20.0, 30.0, 0.0}}};
}

wire::Payload payload_of(std::uint8_t tag) { return wire::Payload{tag}; }

struct Fixture {
  sim::Simulator simulator;
  Network network;
  std::vector<std::pair<NodeId, std::uint8_t>> delivered;  // (dst, first byte)
  std::vector<TimePoint> delivery_times;

  explicit Fixture(Topology topo = two_dc(), std::uint64_t seed = 1)
      : network(simulator, std::move(topo), seed) {}

  void add_node(NodeId id, std::size_t dc) {
    network.register_node(id, dc, [this, id](const Packet& p) {
      delivered.emplace_back(id, p.payload.empty() ? 0 : p.payload[0]);
      delivery_times.push_back(simulator.now());
    });
  }

  TimePoint at(std::int64_t ms) { return TimePoint::epoch() + milliseconds(ms); }
};

TEST(FaultSchedule, BuilderComposesAndCounts) {
  FaultSchedule s;
  s.crash_for(TimePoint::epoch() + milliseconds(10), NodeId{1}, milliseconds(5))
      .partition_both_for(TimePoint::epoch() + milliseconds(20), 0, 1, milliseconds(5))
      .degrade(TimePoint::epoch() + milliseconds(30), milliseconds(10), 0, 1, 2.0)
      .route_change(TimePoint::epoch() + milliseconds(40), 0, 1, milliseconds(7));
  // crash_for = crash + recover; partition_both_for = 2 partitions + 2 heals;
  // degrade = start + end; route_change = 1.
  EXPECT_EQ(s.size(), 2u + 4u + 2u + 1u);
  EXPECT_FALSE(s.empty());
}

TEST(FaultInjector, CrashedSourceAndDestReasons) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  f.network.crash(NodeId{0});
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));  // crashed source
  f.network.recover(NodeId{0});
  f.network.crash(NodeId{1});
  f.network.send(NodeId{0}, NodeId{1}, payload_of(2));  // crashed destination
  f.simulator.run();

  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.network.packets_dropped(), 2u);
  EXPECT_EQ(f.network.packets_dropped(DropReason::kCrashedSource), 1u);
  EXPECT_EQ(f.network.packets_dropped(DropReason::kCrashedDest), 1u);
  EXPECT_EQ(f.network.packets_dropped(DropReason::kPartition), 0u);
}

TEST(FaultInjector, PartitionIsDirectedAndHeals) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  f.network.fault().partition(0, 1);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));  // dropped
  f.network.send(NodeId{1}, NodeId{0}, payload_of(2));  // reverse flows
  f.simulator.run();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, 2);
  EXPECT_EQ(f.network.packets_dropped(DropReason::kPartition), 1u);

  f.network.fault().heal(0, 1);
  f.network.send(NodeId{0}, NodeId{1}, payload_of(3));
  f.simulator.run();
  EXPECT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered.back().second, 3);
}

TEST(FaultInjector, PartitionDoesNotAffectIntraDc) {
  Fixture f{three_dc()};
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 0);
  f.network.fault().partition(0, 0);  // nonsensical but must be harmless
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.run();
  EXPECT_EQ(f.delivered.size(), 1u);
}

TEST(FaultInjector, InFlightPacketLostToMidFlightPartition) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  // OWD is 5 ms; partition the link at 2 ms, while the packet is in flight.
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  f.simulator.schedule_at(f.at(2), [&f] { f.network.fault().partition(0, 1); });
  f.simulator.run();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.network.packets_dropped(DropReason::kPartition), 1u);
}

TEST(FaultInjector, ScheduledCrashAndRecoverApplyAtTheRightTimes) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  FaultSchedule s;
  s.crash_for(f.at(10), NodeId{1}, milliseconds(10));  // down in [10ms, 20ms)
  f.network.install_faults(s);

  f.simulator.schedule_at(f.at(12), [&f] {
    EXPECT_TRUE(f.network.is_crashed(NodeId{1}));
    f.network.send(NodeId{0}, NodeId{1}, payload_of(1));  // dropped
  });
  f.simulator.schedule_at(f.at(25), [&f] {
    EXPECT_FALSE(f.network.is_crashed(NodeId{1}));
    f.network.send(NodeId{0}, NodeId{1}, payload_of(2));  // delivered
  });
  f.simulator.run();

  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].second, 2);
  EXPECT_EQ(f.network.packets_dropped(DropReason::kCrashedDest), 1u);
  EXPECT_EQ(f.network.fault().transitions(), 2u);  // crash + recover
}

TEST(FaultInjector, DegradationEpochMultipliesDelayThenExpires) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  // Constant-latency default links: OWD A->B = 5 ms.
  FaultSchedule s;
  s.degrade(f.at(0), milliseconds(100), 0, 1, /*multiplier=*/3.0);
  f.network.install_faults(s);

  f.simulator.schedule_at(f.at(10), [&f] {
    f.network.send(NodeId{0}, NodeId{1}, payload_of(1));  // 3x => 15 ms
  });
  f.simulator.schedule_at(f.at(200), [&f] {
    f.network.send(NodeId{0}, NodeId{1}, payload_of(2));  // back to 5 ms
  });
  f.simulator.run();

  ASSERT_EQ(f.delivery_times.size(), 2u);
  EXPECT_EQ(f.delivery_times[0], f.at(10) + milliseconds(15));
  EXPECT_EQ(f.delivery_times[1], f.at(200) + milliseconds(5));
}

TEST(FaultInjector, RouteChangeShiftsBasePermanently) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  FaultSchedule s;
  s.route_change(f.at(0), 0, 1, milliseconds(20));
  f.network.install_faults(s);

  f.simulator.schedule_at(f.at(5), [&f] {
    f.network.send(NodeId{0}, NodeId{1}, payload_of(1));
  });
  f.simulator.schedule_at(f.at(500), [&f] {
    f.network.send(NodeId{0}, NodeId{1}, payload_of(2));
  });
  f.simulator.run();

  ASSERT_EQ(f.delivery_times.size(), 2u);
  EXPECT_EQ(f.delivery_times[0], f.at(5) + milliseconds(20));
  EXPECT_EQ(f.delivery_times[1], f.at(500) + milliseconds(20));
}

TEST(FaultInjector, RouteChangesApplyExactlyAtEachStep) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  // Installed before any send is scheduled, so a same-instant send runs
  // after the route change and sees the new base.
  FaultSchedule s;
  s.route_change(f.at(5'000), 0, 1, milliseconds(15))
      .route_change(f.at(10'000), 0, 1, milliseconds(25))
      .route_change(f.at(20'000), 0, 1, milliseconds(35));
  f.network.install_faults(s);

  // 1 ns before, exactly at, and 1 ns after each step, then far past the
  // last one; paired with the one-way delay each packet must see.
  const Duration tick = nanoseconds(1);
  const std::vector<std::pair<TimePoint, Duration>> sends = {
      {f.at(5'000) - tick, milliseconds(5)},   {f.at(5'000), milliseconds(15)},
      {f.at(5'000) + tick, milliseconds(15)},  {f.at(10'000) - tick, milliseconds(15)},
      {f.at(10'000), milliseconds(25)},        {f.at(10'000) + tick, milliseconds(25)},
      {f.at(20'000) - tick, milliseconds(25)}, {f.at(20'000), milliseconds(35)},
      {f.at(20'000) + tick, milliseconds(35)}, {f.at(10'000'000), milliseconds(35)},
  };
  for (const auto& [at, owd] : sends) {
    f.simulator.schedule_at(at, [&f] { f.network.send(NodeId{0}, NodeId{1}, payload_of(1)); });
  }
  f.simulator.run();

  ASSERT_EQ(f.delivery_times.size(), sends.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    EXPECT_EQ(f.delivery_times[i], sends[i].first + sends[i].second) << "send " << i;
  }
}

// Regression: recovery must clear the recovered node's FIFO channel state.
// A crash tears down the node's "TCP connections", so a packet sent on a
// fresh post-recovery connection must not be FIFO-clamped behind a slow
// pre-crash packet's scheduled arrival.
TEST(Network, RecoverResetsFifoChannelState) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  // Slow route: the pre-crash packet will deliver at t = 50 ms, and the
  // FIFO clamp records that as the channel's last delivery at send time.
  f.network.fault().route_change(0, 1, milliseconds(50));
  f.network.send(NodeId{0}, NodeId{1}, payload_of(1));

  f.simulator.schedule_at(f.at(1), [&f] { f.network.crash(NodeId{1}); });
  f.simulator.schedule_at(f.at(2), [&f] {
    f.network.fault().route_change(0, 1, milliseconds(5));
  });
  f.simulator.schedule_at(f.at(3), [&f] { f.network.recover(NodeId{1}); });
  f.simulator.schedule_at(f.at(4), [&f] {
    f.network.send(NodeId{0}, NodeId{1}, payload_of(2));
  });
  f.simulator.run();

  // The post-recovery packet takes the fresh 5 ms route instead of queuing
  // behind the old channel's 50 ms ghost; the pre-crash packet still lands
  // at 50 ms (the destination is alive again by then).
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.delivered[0].second, 2);
  EXPECT_EQ(f.delivery_times[0], f.at(4) + milliseconds(5));
  EXPECT_EQ(f.delivered[1].second, 1);
  EXPECT_EQ(f.delivery_times[1], f.at(0) + milliseconds(50));
}

FaultSchedule chaos_schedule(TimePoint epoch) {
  FaultSchedule s;
  s.crash_for(epoch + milliseconds(20), NodeId{1}, milliseconds(30))
      .partition_both_for(epoch + milliseconds(60), 0, 1, milliseconds(25))
      .degrade(epoch + milliseconds(100), milliseconds(50), 0, 1, 2.5,
               /*extra_spike_prob=*/0.3, /*spike_mean=*/milliseconds(4))
      .route_change(epoch + milliseconds(160), 1, 0, milliseconds(12));
  return s;
}

struct TraceResult {
  std::vector<TimePoint> deliveries;
  std::uint64_t digest = 0;
  std::uint64_t drops = 0;
  std::uint64_t transitions = 0;
};

TraceResult run_chaos(std::uint64_t seed) {
  Fixture f{two_dc(), seed};
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);
  f.network.install_faults(chaos_schedule(TimePoint::epoch()));
  // A steady bidirectional stream of packets across the whole timeline.
  for (std::int64_t ms = 0; ms < 250; ms += 3) {
    f.simulator.schedule_at(f.at(ms), [&f, ms] {
      f.network.send(NodeId{0}, NodeId{1}, payload_of(static_cast<std::uint8_t>(ms)));
      f.network.send(NodeId{1}, NodeId{0}, payload_of(static_cast<std::uint8_t>(ms + 1)));
    });
  }
  f.simulator.run();
  return TraceResult{f.delivery_times, f.network.fault().digest(),
                     f.network.packets_dropped(), f.network.fault().transitions()};
}

TEST(FaultInjector, SameSeedAndScheduleGiveIdenticalTraces) {
  const TraceResult a = run_chaos(42);
  const TraceResult b = run_chaos(42);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.transitions, b.transitions);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_GT(a.drops, 0u);        // the schedule actually dropped something
  EXPECT_EQ(a.transitions, 9u);  // 2 + 4 + 2 + 1 events applied
}

TEST(FaultInjector, DegradationSpikesComeFromTheInjectorSeed) {
  // Different seeds may produce different spike delays, but the fault/drop
  // digest tracks only transitions and drops, whose *times* depend on the
  // deterministic send schedule — so drops can differ only if spikes push
  // packets across fault boundaries. The key property: each seed is
  // internally reproducible.
  const TraceResult a1 = run_chaos(7);
  const TraceResult a2 = run_chaos(7);
  EXPECT_EQ(a1.digest, a2.digest);
  EXPECT_EQ(a1.deliveries, a2.deliveries);
}

// Overlapping crash_for windows: crash(10..20) and crash(15..25) on the same
// node. The second crash hits an already-down node (no-op), so the FIRST
// recover at 20 ms brings the node back even though the second window claims
// downtime until 25 ms; the second recover is then a no-op too. Exactly one
// crash->recover pair is accounted.
TEST(FaultInjector, OverlappingCrashWindowsRecoverAtFirstDeadline) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  FaultSchedule s;
  s.crash_for(f.at(10), NodeId{1}, milliseconds(10))
      .crash_for(f.at(15), NodeId{1}, milliseconds(10));
  f.network.install_faults(s);

  f.simulator.schedule_at(f.at(17), [&f] {
    EXPECT_TRUE(f.network.is_crashed(NodeId{1}));
  });
  f.simulator.schedule_at(f.at(22), [&f] {
    // First window's recover already fired; the overlap does not extend it.
    EXPECT_FALSE(f.network.is_crashed(NodeId{1}));
    f.network.send(NodeId{0}, NodeId{1}, payload_of(1));  // delivered
  });
  f.simulator.run();

  ASSERT_EQ(f.delivered.size(), 1u);
  // One real crash + one real recover; the duplicated pair was a no-op.
  EXPECT_EQ(f.network.fault().transitions(), 2u);
  EXPECT_EQ(f.network.fault().total_downtime(), milliseconds(10));
}

// Same-instant events apply in insertion order (stable sort). A recover
// appended BEFORE a crash at the same timestamp is a no-op (the node is
// still up when it applies), so the node ends the instant crashed.
TEST(FaultInjector, SameInstantRecoverBeforeCrashLeavesNodeDown) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  FaultSchedule s;
  s.recover(f.at(10), NodeId{1}).crash(f.at(10), NodeId{1});
  f.network.install_faults(s);

  f.simulator.schedule_at(f.at(11), [&f] {
    EXPECT_TRUE(f.network.is_crashed(NodeId{1}));
  });
  f.simulator.run();
  EXPECT_TRUE(f.network.is_crashed(NodeId{1}));
  EXPECT_EQ(f.network.fault().transitions(), 1u);  // only the crash applied
}

// ...and the opposite insertion order at the same instant: crash then
// recover leaves the node up, having completed a zero-downtime bounce.
TEST(FaultInjector, SameInstantCrashThenRecoverLeavesNodeUp) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  FaultSchedule s;
  s.crash(f.at(10), NodeId{1}).recover(f.at(10), NodeId{1});
  f.network.install_faults(s);
  f.simulator.run();

  EXPECT_FALSE(f.network.is_crashed(NodeId{1}));
  EXPECT_EQ(f.network.fault().transitions(), 2u);  // both applied, in order
  EXPECT_EQ(f.network.fault().total_downtime(), Duration::zero());
}

// Immediate-API idempotence: crashing an already-crashed node and
// recovering an already-live node are silent no-ops — no transition is
// counted, no digest perturbation, and hooks do not fire.
TEST(FaultInjector, DoubleCrashAndDoubleRecoverAreNoOps) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  int restarts = 0;
  f.network.set_restart_hook([&restarts](NodeId) { ++restarts; });

  f.network.crash(NodeId{1});
  const std::uint64_t digest_after_crash = f.network.fault().digest();
  f.network.crash(NodeId{1});  // no-op
  EXPECT_EQ(f.network.fault().transitions(), 1u);
  EXPECT_EQ(f.network.fault().digest(), digest_after_crash);

  f.network.recover(NodeId{1});
  EXPECT_EQ(restarts, 1);
  const std::uint64_t digest_after_recover = f.network.fault().digest();
  f.network.recover(NodeId{1});  // no-op: hook must not fire again
  EXPECT_EQ(f.network.fault().transitions(), 2u);
  EXPECT_EQ(f.network.fault().digest(), digest_after_recover);
  EXPECT_EQ(restarts, 1);
}

// The restart (amnesia) hook fires once per real crash->recover pair, at
// recovery time, and only for the recovered node.
TEST(FaultInjector, RestartHookFiresOncePerRealRecovery) {
  Fixture f;
  f.add_node(NodeId{0}, 0);
  f.add_node(NodeId{1}, 1);

  std::vector<std::pair<NodeId, TimePoint>> restarts;
  f.network.set_restart_hook([&](NodeId n) {
    restarts.emplace_back(n, f.simulator.now());
  });

  FaultSchedule s;
  s.crash_for(f.at(10), NodeId{1}, milliseconds(5))
      .crash_for(f.at(12), NodeId{1}, milliseconds(5))  // overlap: no-op pair
      .crash_for(f.at(30), NodeId{0}, milliseconds(5));
  f.network.install_faults(s);
  f.simulator.run();

  ASSERT_EQ(restarts.size(), 2u);
  EXPECT_EQ(restarts[0].first, NodeId{1});
  EXPECT_EQ(restarts[0].second, f.at(15));
  EXPECT_EQ(restarts[1].first, NodeId{0});
  EXPECT_EQ(restarts[1].second, f.at(35));
  // Two real pairs of 5 ms each; the overlapped pair contributed nothing.
  EXPECT_EQ(f.network.fault().total_downtime(), milliseconds(10));
}

TEST(FaultInjector, DropReasonNames) {
  EXPECT_STREQ(drop_reason_name(DropReason::kNone), "none");
  EXPECT_STREQ(drop_reason_name(DropReason::kCrashedSource), "crashed_src");
  EXPECT_STREQ(drop_reason_name(DropReason::kCrashedDest), "crashed_dst");
  EXPECT_STREQ(drop_reason_name(DropReason::kPartition), "partition");
}

}  // namespace
}  // namespace domino::net

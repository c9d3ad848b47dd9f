#include "measure/estimator.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/window_estimator.h"

namespace domino::measure {
namespace {

/// Scriptable LatencyView: per-target estimates plus a staleness flag, for
/// exercising the composite estimators without a live prober.
class FakeView : public LatencyView {
 public:
  struct Entry {
    Duration rtt = Duration::max();
    Duration owd = Duration::max();
    Duration repl = Duration::max();
    bool stale = false;
  };

  FakeView& set(NodeId id, Entry e) {
    entries_[id] = e;
    return *this;
  }

  // Like the real Prober, a failed/stale target's estimates degrade to
  // max() — the composite estimators rely on that.
  [[nodiscard]] Duration rtt_estimate(NodeId t, double) const override {
    const auto it = entries_.find(t);
    return it == entries_.end() || it->second.stale ? Duration::max() : it->second.rtt;
  }
  [[nodiscard]] Duration owd_estimate(NodeId t, double) const override {
    const auto it = entries_.find(t);
    return it == entries_.end() || it->second.stale ? Duration::max() : it->second.owd;
  }
  [[nodiscard]] Duration replication_latency_of(NodeId t) const override {
    const auto it = entries_.find(t);
    return it == entries_.end() ? Duration::max() : it->second.repl;
  }
  [[nodiscard]] bool looks_failed(NodeId t) const override { return is_stale(t); }
  [[nodiscard]] bool is_stale(NodeId t) const override {
    const auto it = entries_.find(t);
    return it == entries_.end() || it->second.stale;
  }
  [[nodiscard]] double default_percentile() const override { return 95.0; }

 private:
  std::unordered_map<NodeId, Entry> entries_;
};

// A stub prober is impractical (Prober needs a live node), so the
// composite estimators are covered by tests/measure/test_prober.cpp and the
// integration tests; here we check the math helpers over raw vectors via
// kth_smallest with the quorum sizes the estimators use.
TEST(Estimators, DfpLatencyIsSupermajorityRtt) {
  // 3 replicas: q = 3, the furthest of all three.
  std::vector<Duration> rtts{milliseconds(67), milliseconds(80), milliseconds(196)};
  EXPECT_EQ(kth_smallest(rtts, supermajority(3)), milliseconds(196));
  // 5 replicas: q = 4.
  std::vector<Duration> rtts5{milliseconds(10), milliseconds(20), milliseconds(30),
                              milliseconds(40), milliseconds(50)};
  EXPECT_EQ(kth_smallest(rtts5, supermajority(5)), milliseconds(40));
}

TEST(Estimators, ReplicationLatencyIsMajorityRtt) {
  // Leader's RTTs with self = 0: L = m-th smallest.
  std::vector<Duration> rtts{Duration::zero(), milliseconds(136), milliseconds(175)};
  EXPECT_EQ(kth_smallest(rtts, majority(3)), milliseconds(136));
}

TEST(Estimators, MaxPropagates) {
  std::vector<Duration> rtts{milliseconds(1), Duration::max(), Duration::max()};
  EXPECT_EQ(kth_smallest(rtts, supermajority(3)), Duration::max());
}

TEST(Estimators, DmSkipsStaleReplicasAndPicksCheapestLane) {
  const std::vector<NodeId> replicas{NodeId{0}, NodeId{1}, NodeId{2}};
  FakeView view;
  view.set(NodeId{0}, {milliseconds(40), milliseconds(20), milliseconds(100), false});
  view.set(NodeId{1}, {milliseconds(10), milliseconds(5), milliseconds(200), false});
  view.set(NodeId{2}, {milliseconds(5), milliseconds(2), milliseconds(50), true});
  const DmEstimate est = estimate_dm_latency(view, replicas);
  // n2 would win (5 + 50) but is stale; n0 (40+100=140) loses to n1 (10+200
  // = 210)? No: 140 < 210, so n0 wins.
  EXPECT_EQ(est.leader, NodeId{0});
  EXPECT_EQ(est.latency, milliseconds(140));
}

TEST(Estimators, DmWithAllReplicasStaleYieldsInvalidLeader) {
  // Right after startup (or under a full partition) every feed is stale:
  // the estimate must say so — max() latency, invalid leader — rather than
  // pick a lane on garbage numbers. The Domino client then falls back to
  // fallback_dm_leader(), which is what keeps it live.
  const std::vector<NodeId> replicas{NodeId{0}, NodeId{1}, NodeId{2}};
  FakeView view;
  for (NodeId r : replicas) {
    view.set(r, {milliseconds(10), milliseconds(5), milliseconds(20), /*stale=*/true});
  }
  const DmEstimate est = estimate_dm_latency(view, replicas);
  EXPECT_EQ(est.latency, Duration::max());
  EXPECT_FALSE(est.leader.valid());

  // DFP is equally unusable: the supermajority RTT degenerates to max()...
  EXPECT_EQ(estimate_dfp_latency(view, replicas), Duration::max());
  // ...and no arrival prediction exists, so no timestamp can be stamped.
  EXPECT_EQ(dfp_request_timestamp(view, TimePoint::epoch(), replicas, Duration::zero()),
            TimePoint::max());
}

TEST(Estimators, DmIgnoresRepliclessEstimates) {
  // A fresh feed with an RTT but no piggybacked L_r yet cannot be priced.
  const std::vector<NodeId> replicas{NodeId{0}, NodeId{1}};
  FakeView view;
  view.set(NodeId{0}, {milliseconds(10), milliseconds(5), Duration::max(), false});
  view.set(NodeId{1}, {milliseconds(30), milliseconds(15), milliseconds(60), false});
  const DmEstimate est = estimate_dm_latency(view, replicas);
  EXPECT_EQ(est.leader, NodeId{1});
  EXPECT_EQ(est.latency, milliseconds(90));
}

}  // namespace
}  // namespace domino::measure

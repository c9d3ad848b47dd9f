// Network prober: the measurement component embedded in every Domino
// client and replica.
//
// Every `interval` (default 10 ms) the prober sends a Probe to each target
// replica. From each reply it records:
//   - the round-trip time (reply receipt - probe send, on the prober's
//     clock), and
//   - the "arrival offset": replica_local_time - probe send time, i.e. the
//     one-way delay *including clock skew* — exactly the quantity Section
//     5.4 uses to predict request arrival times ("our arrival time
//     measurements include both network delays and clock skew").
//
// Both series feed sliding-window percentile estimators (default window
// 1 s, default percentile p95). The prober also tracks the replication-
// latency estimate L_r piggybacked on each reply, and the last time each
// target answered (for the failure heuristic of Section 5.8: unresponsive
// replicas are predicted to have very large delays).
#pragma once

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "common/window_estimator.h"
#include "measure/latency_view.h"
#include "measure/messages.h"
#include "obs/calibration.h"
#include "rpc/node.h"

namespace domino::measure {

struct ProberConfig {
  Duration probe_interval = milliseconds(10);
  Duration window = seconds(1);
  double percentile = 95.0;
};

class Prober final : public LatencyView {
 public:
  /// @param owner the node this prober lives in (used for clock + sends).
  Prober(rpc::Node& owner, std::vector<NodeId> targets, ProberConfig config);

  /// Begin periodic probing.
  void start();
  void stop();

  /// The owner's dispatch must route kProbeReply packets here.
  void on_probe_reply(NodeId from, const ProbeReply& reply);

  /// Build the reply a *replica* sends when probed; `replication_latency`
  /// is the replica's current L_r (zero for plain clients acting as
  /// responders in tests).
  static ProbeReply make_reply(const Probe& probe, TimePoint replica_local_now,
                               Duration replication_latency);

  /// p-th percentile RTT estimate to `target` within the window, or
  /// Duration::max() if the target looks failed / was never measured.
  [[nodiscard]] Duration rtt_estimate(NodeId target, double percentile) const;
  [[nodiscard]] Duration rtt_estimate(NodeId target) const override {
    return rtt_estimate(target, config_.percentile);
  }

  /// Arrival-offset (OWD + skew) estimate at the configured percentile.
  [[nodiscard]] Duration owd_estimate(NodeId target) const override;

  /// Latest piggybacked replication-latency estimate from `target`.
  [[nodiscard]] Duration replication_latency_of(NodeId target) const override;

  /// A target that has not answered for this long is considered failed and
  /// reported with Duration::max() estimates.
  static constexpr Duration kFailureTimeout = milliseconds(500);
  [[nodiscard]] bool looks_failed(NodeId target) const;

  /// A target that has not answered for this many probe intervals is
  /// *stale* well before kFailureTimeout (Section 5.8's fast "stop trusting
  /// this link" signal): its estimates still exist but consumers should
  /// stop trusting the link (e.g. the Domino client skips stale DM leaders).
  static constexpr std::int64_t kStaleAfterIntervals = 3;
  [[nodiscard]] bool is_stale(NodeId target) const override;

  [[nodiscard]] const std::vector<NodeId>& targets() const { return targets_; }
  [[nodiscard]] const ProberConfig& config() const { return config_; }

  /// Total probes sent (tests / overhead accounting, Section 5.6 discusses
  /// probe traffic growth).
  [[nodiscard]] std::uint64_t probes_sent() const { return obs_probes_sent_.value(); }

  /// Per-target estimator calibration: each probe reply's realized arrival
  /// offset is checked against the percentile prediction the window held
  /// just before the sample arrived. Coverage near the configured
  /// percentile means the arrival predictor is honest; systematic
  /// under-coverage on a target is the miscalibration the prediction audit
  /// (obs/predict.h) blames for blown DFP deadlines. One row per target
  /// that produced a sample, in target order.
  [[nodiscard]] std::vector<obs::CalibrationRow> calibration_rows() const;

 private:
  void send_probes();

  struct TargetState {
    WindowEstimator rtt;
    WindowEstimator owd;
    Duration replication_latency = Duration::zero();
    TimePoint last_reply_true_time = TimePoint::epoch();
    bool ever_replied = false;
    obs::CalibrationCell calibration;
    TargetState(Duration window, obs::CalibrationCell calibration)
        : rtt(window), owd(window), calibration(calibration) {}
  };

  rpc::Node& owner_;
  std::vector<NodeId> targets_;
  ProberConfig config_;
  obs::CounterHandle obs_probes_sent_;
  obs::CounterHandle obs_probe_replies_;
  obs::HistogramHandle obs_calib_margin_;
  obs::HistogramHandle obs_calib_overshoot_;
  std::unordered_map<NodeId, TargetState> state_;
  rpc::RepeatingTimer timer_;
  TimePoint started_;
  bool ever_started_ = false;
  std::uint64_t next_seq_ = 0;
};

}  // namespace domino::measure

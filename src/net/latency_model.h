// One-way-delay models for directed WAN links.
//
// Each directed link (src datacenter -> dst datacenter) owns a LatencyModel
// and an independent RNG stream. Models compose a stable propagation base
// with short-timescale jitter and rare spikes — the regime the paper
// measures on Azure (Section 3: "the variance of the network roundtrip
// delay is relatively small compared to the minimum measured delay").
//
// The models in this file are stationary; wan::EmpiricalLatency
// (wan/empirical.h) replays a time-varying measured trace. Mid-run
// base-delay changes (Section 7.3's traffic-control microbenchmarks,
// Figure 12) are route changes on the fault layer: FaultSchedule::
// route_change (net/fault.h) moves a link's sampled delay onto a new base
// and keeps the model's jitter around it.
#pragma once

#include "common/rng.h"
#include "common/time.h"

namespace domino::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Sample the one-way delay of a message sent at `now`.
  [[nodiscard]] virtual Duration sample(TimePoint now, Rng& rng) = 0;

  /// The deterministic floor of the delay at time `now` (no jitter), used
  /// by tests and by the geometry analysis.
  [[nodiscard]] virtual Duration base(TimePoint now) const = 0;
};

/// Fixed delay, no jitter. Useful for tests and the Section 4 analysis.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(Duration owd) : owd_(owd) {}
  Duration sample(TimePoint, Rng&) override { return owd_; }
  [[nodiscard]] Duration base(TimePoint) const override { return owd_; }

 private:
  Duration owd_;
};

/// Stable base + log-normal jitter + rare exponential spikes.
///
/// sampled = base + lognormal(jitter_mu_ms, jitter_sigma) ms
///           [+ exponential(spike_mean) with probability spike_prob]
struct JitterParams {
  double jitter_mu_ms = -2.0;    // median jitter exp(mu) ms (~0.135 ms)
  double jitter_sigma = 0.8;     // spread of the log-normal
  double spike_prob = 0.0005;    // per-message probability of a delay spike
  Duration spike_mean = milliseconds(8);
};

class JitterLatency final : public LatencyModel {
 public:
  JitterLatency(Duration base_owd, JitterParams params) : base_(base_owd), p_(params) {}

  Duration sample(TimePoint, Rng& rng) override;
  [[nodiscard]] Duration base(TimePoint) const override { return base_; }

 private:
  Duration base_;
  JitterParams p_;
};

}  // namespace domino::net

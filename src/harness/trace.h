// Arrival-time prediction analysis over probe traces.
//
// Stands in for the paper's 24-hour Azure probe traces [4, 5]: a pair of
// one-way delay series (synthesized by wan::TraceGenerator, wan/generator.h,
// or loaded from a measured trace) becomes the probe samples an ideal
// prober would see, endpoint clock offset included. From those samples the
// analysis utilities reproduce:
//   - Figure 3's correct-prediction rate (percentile x window sweep),
//   - Tables 2 and 3's p99 misprediction values for the half-RTT and
//     replica-timestamp OWD estimators.
#pragma once

#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "wan/delay_trace.h"

namespace domino::harness {

struct ProbeSample {
  TimePoint sent_at;  // prober's clock
  Duration rtt;       // measured round-trip
  /// Replica timestamp - send timestamp: the true forward delay plus the
  /// clock offset, which is also the offset a request's arrival obeys.
  Duration owd_measured;
};

/// Pair a WAN delay trace's forward and reverse OWD series into probe
/// samples, as an ideal prober would observe them:
/// one probe per forward sample, RTT = forward + time-matched reverse delay.
/// The series may have different lengths/intervals; each forward sample is
/// matched with the latest reverse sample at or before its timestamp (the
/// first one, before any reverse data). Throws TraceError if either series
/// is empty. `remote_clock_offset` skews the replica's receipt timestamps.
[[nodiscard]] std::vector<ProbeSample> probe_samples_from_wan(
    const std::vector<wan::TraceSample>& forward,
    const std::vector<wan::TraceSample>& reverse,
    Duration remote_clock_offset = Duration::zero());

enum class OwdEstimator {
  kHalfRtt,           // predicted arrival offset = RTT/2 (no skew correction)
  kReplicaTimestamp,  // Domino's Section 5.4 technique
};

struct PredictionOutcome {
  double correct_rate = 0.0;        // fraction of arrivals at/before prediction
  double p99_misprediction_ms = 0;  // over late arrivals only (paper's metric)
  std::size_t evaluated = 0;
};

/// Replay `trace` through a sliding-window percentile predictor and score
/// arrival-time predictions, exactly as Sections 3 and 5.4 evaluate them:
/// prediction for a request sent at t = t + percentile(window) estimate of
/// the arrival offset; an arrival at or before the prediction is correct;
/// the misprediction value of a late arrival is (actual - predicted).
[[nodiscard]] PredictionOutcome evaluate_predictions(const std::vector<ProbeSample>& trace,
                                                     OwdEstimator estimator, Duration window,
                                                     double percentile);

}  // namespace domino::harness

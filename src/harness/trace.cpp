#include "harness/trace.h"

#include "common/window_estimator.h"

namespace domino::harness {

std::vector<ProbeSample> probe_samples_from_wan(
    const std::vector<wan::TraceSample>& forward,
    const std::vector<wan::TraceSample>& reverse, Duration remote_clock_offset) {
  if (forward.empty() || reverse.empty()) {
    throw wan::TraceError("probe_samples_from_wan: empty direction series");
  }
  std::vector<ProbeSample> out;
  out.reserve(forward.size());
  std::size_t r = 0;
  for (const wan::TraceSample& f : forward) {
    while (r + 1 < reverse.size() && reverse[r + 1].at <= f.at) ++r;
    ProbeSample s;
    s.sent_at = f.at;
    s.rtt = f.owd + reverse[r].owd;
    s.owd_measured = f.owd + remote_clock_offset;
    out.push_back(s);
  }
  return out;
}

PredictionOutcome evaluate_predictions(const std::vector<ProbeSample>& trace,
                                       OwdEstimator estimator, Duration window,
                                       double percentile) {
  WindowEstimator estimates(window);
  PredictionOutcome outcome;
  std::size_t correct = 0;
  StatAccumulator late_ms;

  for (const ProbeSample& s : trace) {
    const auto predicted_offset = estimates.percentile(s.sent_at, percentile);
    if (predicted_offset) {
      ++outcome.evaluated;
      // A request sent now would arrive at offset owd_measured; the
      // prediction is correct if that is <= the predicted offset.
      if (s.owd_measured <= *predicted_offset) {
        ++correct;
      } else {
        late_ms.add((s.owd_measured - *predicted_offset).millis());
      }
    }
    // Feed the estimator after predicting (the probe that measures this
    // sample completes one RTT later; the half-step is negligible at 10 ms
    // probing).
    switch (estimator) {
      case OwdEstimator::kHalfRtt:
        estimates.add(s.sent_at, s.rtt / 2);
        break;
      case OwdEstimator::kReplicaTimestamp:
        estimates.add(s.sent_at, s.owd_measured);
        break;
    }
  }

  if (outcome.evaluated > 0) {
    outcome.correct_rate =
        static_cast<double>(correct) / static_cast<double>(outcome.evaluated);
  }
  outcome.p99_misprediction_ms = late_ms.empty() ? 0.0 : late_ms.percentile(99);
  return outcome;
}

}  // namespace domino::harness

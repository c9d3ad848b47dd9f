// Per-node local clocks with configurable offset (skew) and drift.
//
// The paper assumes "loosely synchronized clocks" (Section 5.1): NTP-level
// skew affects Domino's performance but not its correctness. LocalClock maps
// true simulation time to a node's local wall-clock reading:
//
//     local(t) = t * (1 + drift_ppm * 1e-6) + offset
//
// DFP timestamps, OWD estimates and no-op watermarks are all read through
// this mapping, so clock skew flows into the protocol exactly as it does on
// real deployments.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace domino::sim {

class LocalClock {
 public:
  LocalClock() = default;
  LocalClock(Duration offset, double drift_ppm) : offset_(offset), drift_ppm_(drift_ppm) {}

  /// The node's local reading when true time is `true_now`.
  [[nodiscard]] TimePoint local(TimePoint true_now) const {
    const double drifted =
        static_cast<double>(true_now.nanos()) * (1.0 + drift_ppm_ * 1e-6);
    return TimePoint{static_cast<std::int64_t>(drifted) + offset_.nanos()};
  }

  /// Inverse mapping: the true time at which this clock reads `local_time`.
  [[nodiscard]] TimePoint true_at(TimePoint local_time) const {
    const double t =
        static_cast<double>((local_time - Duration{offset_.nanos()}).nanos()) /
        (1.0 + drift_ppm_ * 1e-6);
    return TimePoint{static_cast<std::int64_t>(t)};
  }

  [[nodiscard]] Duration offset() const { return offset_; }
  [[nodiscard]] double drift_ppm() const { return drift_ppm_; }

 private:
  Duration offset_ = Duration::zero();
  double drift_ppm_ = 0.0;
};

}  // namespace domino::sim

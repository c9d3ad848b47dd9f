// Sliding-window percentile estimator.
//
// Domino clients and replicas estimate network delays as "the n-th
// percentile value in the past time period (i.e., window size)" (paper
// Sections 3 and 5.4). This class keeps timestamped samples, evicts those
// older than the window, and answers percentile queries.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "common/time.h"

namespace domino {

/// q-th smallest element of `delays` (1-based q). Returns Duration::max()
/// when q is 0 or exceeds the number of entries.
[[nodiscard]] Duration kth_smallest(std::vector<Duration> delays, std::size_t q);

class WindowEstimator {
 public:
  /// @param window how far back samples are retained, relative to the most
  ///               recent query/insert time.
  explicit WindowEstimator(Duration window) : window_(window) {}

  /// Record a sample observed at time `now`. Samples must be added in
  /// non-decreasing time order.
  void add(TimePoint now, Duration value);

  /// The p-th percentile (p in [0, 100]) of samples within the window
  /// ending at `now`, or nullopt if the window is empty.
  /// Uses the nearest-rank method: the ceil(p/100 * n)-th smallest sample
  /// (and the smallest sample for p = 0).
  [[nodiscard]] std::optional<Duration> percentile(TimePoint now, double p) const;

  /// Number of samples currently within the window ending at `now`.
  [[nodiscard]] std::size_t count(TimePoint now) const;

  [[nodiscard]] bool empty(TimePoint now) const { return count(now) == 0; }

  [[nodiscard]] Duration window() const { return window_; }

 private:
  void evict(TimePoint now);

  struct Sample {
    TimePoint at;
    Duration value;
  };

  Duration window_;
  mutable std::deque<Sample> samples_;
};

}  // namespace domino

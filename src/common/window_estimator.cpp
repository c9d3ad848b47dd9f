#include "common/window_estimator.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace domino {

Duration kth_smallest(std::vector<Duration> delays, std::size_t q) {
  if (q == 0 || q > delays.size()) return Duration::max();
  std::nth_element(delays.begin(), delays.begin() + static_cast<std::ptrdiff_t>(q - 1),
                   delays.end());
  return delays[q - 1];
}

void WindowEstimator::add(TimePoint now, Duration value) {
  samples_.push_back({now, value});
  evict(now);
}

void WindowEstimator::evict(TimePoint now) {
  const TimePoint cutoff = now - window_;
  while (!samples_.empty() && samples_.front().at < cutoff) samples_.pop_front();
}

std::size_t WindowEstimator::count(TimePoint now) const {
  const TimePoint cutoff = now - window_;
  std::size_t n = 0;
  for (auto it = samples_.rbegin(); it != samples_.rend() && it->at >= cutoff; ++it) ++n;
  return n;
}

std::optional<Duration> WindowEstimator::percentile(TimePoint now, double p) const {
  const TimePoint cutoff = now - window_;
  std::vector<Duration> vals;
  vals.reserve(samples_.size());
  for (auto it = samples_.rbegin(); it != samples_.rend() && it->at >= cutoff; ++it) {
    vals.push_back(it->value);
  }
  if (vals.empty()) return std::nullopt;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(vals.size())));
  return kth_smallest(std::move(vals), std::max<std::size_t>(rank, 1));
}

}  // namespace domino

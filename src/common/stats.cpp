#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace domino {

void StatAccumulator::ensure_sorted() const {
  if (!sorted_) {
    std::sort(narrow_.begin(), narrow_.end());
    std::sort(spill_.begin(), spill_.end());
    sorted_ = true;
  }
}

double StatAccumulator::at_rank(std::size_t rank) const {
  // Ascending order is the spill's negatives, the narrow array, then the
  // spill's spans of 2^32 ns and more.
  const auto negatives = static_cast<std::size_t>(
      std::lower_bound(spill_.begin(), spill_.end(), std::int64_t{0}) - spill_.begin());
  if (rank < negatives) return Duration{spill_[rank]}.millis();
  if (rank - negatives < narrow_.size()) return Duration{narrow_[rank - negatives]}.millis();
  return Duration{spill_[rank - narrow_.size()]}.millis();
}

double StatAccumulator::mean() const {
  if (empty()) throw std::logic_error("StatAccumulator::mean on empty set");
  return Duration{sum_ns_}.millis() / static_cast<double>(count());
}

double StatAccumulator::min() const {
  ensure_sorted();
  if (empty()) throw std::logic_error("StatAccumulator::min on empty set");
  return at_rank(0);
}

double StatAccumulator::max() const {
  ensure_sorted();
  if (empty()) throw std::logic_error("StatAccumulator::max on empty set");
  return at_rank(count() - 1);
}

double StatAccumulator::stddev() const {
  if (count() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  const auto add_square = [&](std::int64_t ns) {
    const double d = Duration{ns}.millis() - m;
    acc += d * d;
  };
  for (const std::uint32_t ns : narrow_) add_square(ns);
  for (const std::int64_t ns : spill_) add_square(ns);
  return std::sqrt(acc / static_cast<double>(count() - 1));
}

double StatAccumulator::percentile(double p) const {
  ensure_sorted();
  if (empty()) throw std::logic_error("StatAccumulator::percentile on empty set");
  p = std::clamp(p, 0.0, 100.0);
  std::size_t rank = 0;
  if (p > 0.0) {
    rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(count())));
    if (rank > 0) --rank;
  }
  return at_rank(rank);
}

void StatAccumulator::merge(const StatAccumulator& other) {
  narrow_.insert(narrow_.end(), other.narrow_.begin(), other.narrow_.end());
  spill_.insert(spill_.end(), other.spill_.begin(), other.spill_.end());
  sum_ns_ += other.sum_ns_;
  sorted_ = false;
}

void StatAccumulator::shrink_to_fit() {
  narrow_.shrink_to_fit();
  spill_.shrink_to_fit();
}

std::vector<double> StatAccumulator::sorted_values() const {
  ensure_sorted();
  std::vector<double> out;
  out.reserve(count());
  for (std::size_t rank = 0; rank < count(); ++rank) out.push_back(at_rank(rank));
  return out;
}

StatAccumulator::BoxSummary StatAccumulator::box_summary() const {
  return {percentile(5), percentile(25), percentile(50), percentile(75), percentile(95)};
}

void TimeSeries::add(TimePoint at, Duration value) {
  if (at < TimePoint::epoch()) return;
  const auto idx = static_cast<std::size_t>((at - TimePoint::epoch()).nanos() / width_.nanos());
  if (idx >= buckets_.size()) buckets_.resize(idx + 1);
  buckets_[idx].add(value);
}

}  // namespace domino

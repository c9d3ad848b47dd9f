#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace domino::obs {

std::int64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::min(bucket_upper_bound(i), max_);
  }
  return max_;
}

std::int64_t Histogram::bucket_upper_bound(std::size_t i) {
  if (i < 8) return static_cast<std::int64_t>(i);
  const std::size_t msb = 3 + (i - 8) / kSubBuckets;
  const std::size_t sub = (i - 8) % kSubBuckets;
  const std::uint64_t lower =
      (std::uint64_t{1} << msb) + (static_cast<std::uint64_t>(sub) << (msb - 3));
  const std::uint64_t width = std::uint64_t{1} << (msb - 3);
  return static_cast<std::int64_t>(lower + width - 1);
}

Histogram Histogram::since(const Histogram& before) const {
  Histogram d = *this;
  for (std::size_t i = 0; i < kBucketCount; ++i) d.buckets_[i] -= before.buckets_[i];
  d.count_ -= before.count_;
  d.sum_ -= before.sum_;
  return d;
}

namespace {

[[noreturn]] void kind_mismatch(std::string_view name) {
  throw std::logic_error("MetricsRegistry: '" + std::string(name) +
                         "' already registered with a different kind");
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    it = slots_.emplace(std::string(name), Slot{}).first;
    it->second.counter = std::make_unique<Counter>();
  } else if (it->second.counter == nullptr) {
    kind_mismatch(name);
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    it = slots_.emplace(std::string(name), Slot{}).first;
    it->second.gauge = std::make_unique<Gauge>();
  } else if (it->second.gauge == nullptr) {
    kind_mismatch(name);
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    it = slots_.emplace(std::string(name), Slot{}).first;
    it->second.histogram = std::make_unique<Histogram>();
  } else if (it->second.histogram == nullptr) {
    kind_mismatch(name);
  }
  return *it->second.histogram;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : it->second.counter.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : it->second.gauge.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : it->second.histogram.get();
}

}  // namespace domino::obs

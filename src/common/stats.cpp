#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace domino {

namespace {

[[nodiscard]] std::size_t leb128_size(std::uint32_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void write_leb128(std::uint8_t*& p, std::uint32_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v | 0x80);
  *p++ = static_cast<std::uint8_t>(v);
}

[[nodiscard]] std::uint32_t read_leb128(const std::uint8_t*& p) {
  std::uint32_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if (b < 0x80) return v;
  }
}

}  // namespace

void StatAccumulator::ensure_sorted() const {
  if (!sorted_) {
    std::sort(narrow_.begin(), narrow_.end());
    std::sort(spill_.begin(), spill_.end());
    sorted_ = true;
  }
}

template <typename F>
void StatAccumulator::for_each_frozen(F&& f) const {
  // The blocks lie back to back, so one cursor walks every delta in turn.
  const std::uint8_t* p = deltas_.data();
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < frozen_count_; ++i) {
    v = i % kBlock == 0 ? anchors_[i / kBlock].value : v + read_leb128(p);
    f(v);
  }
}

template <typename F>
void StatAccumulator::for_each_ascending(F&& f) const {
  // Ascending order is the spill's negatives, the narrow samples, then the
  // spill's spans of 2^32 ns and more.
  ensure_sorted();
  const auto positives = std::lower_bound(spill_.begin(), spill_.end(), std::int64_t{0});
  for (auto it = spill_.begin(); it != positives; ++it) f(*it);
  for (const std::uint32_t ns : narrow_) f(std::int64_t{ns});
  for_each_frozen([&f](std::uint32_t ns) { f(std::int64_t{ns}); });
  for (auto it = positives; it != spill_.end(); ++it) f(*it);
}

double StatAccumulator::at_rank(std::size_t rank) const {
  const auto negatives = static_cast<std::size_t>(
      std::lower_bound(spill_.begin(), spill_.end(), std::int64_t{0}) - spill_.begin());
  if (rank < negatives) return Duration{spill_[rank]}.millis();
  rank -= negatives;
  if (rank >= narrow_count()) return Duration{spill_[negatives + rank - narrow_count()]}.millis();
  if (!frozen()) return Duration{narrow_[rank]}.millis();
  const Anchor& anchor = anchors_[rank / kBlock];
  std::uint32_t ns = anchor.value;
  const std::uint8_t* p = deltas_.data() + anchor.offset;
  for (std::size_t k = rank % kBlock; k > 0; --k) ns += read_leb128(p);
  return Duration{ns}.millis();
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
  for_each_ascending([&](std::int64_t ns) {
    const double d = Duration{ns}.millis() - m;
    acc += d * d;
  });
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
  if (frozen()) thaw();
  narrow_.insert(narrow_.end(), other.narrow_.begin(), other.narrow_.end());
  other.for_each_frozen([this](std::uint32_t ns) { narrow_.push_back(ns); });
  spill_.insert(spill_.end(), other.spill_.begin(), other.spill_.end());
  sum_ns_ += other.sum_ns_;
  sorted_ = false;
}

void StatAccumulator::freeze() {
  ensure_sorted();
  spill_.shrink_to_fit();
  const std::size_t n = narrow_.size();
  std::size_t bytes = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (i % kBlock != 0) bytes += leb128_size(narrow_[i] - narrow_[i - 1]);
  }
  // Anchor offsets are 32-bit; a set too large for them stays as it is.
  if (n == 0 || bytes > static_cast<std::size_t>(kNarrowMax)) {
    narrow_.shrink_to_fit();
    return;
  }
  deltas_.resize(bytes);
  anchors_.reserve((n + kBlock - 1) / kBlock);
  std::uint8_t* p = deltas_.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kBlock == 0) {
      anchors_.push_back({narrow_[i], static_cast<std::uint32_t>(p - deltas_.data())});
    } else {
      write_leb128(p, narrow_[i] - narrow_[i - 1]);
    }
  }
  frozen_count_ = n;
  narrow_ = std::vector<std::uint32_t>{};  // `= {}` would keep the capacity
}

void StatAccumulator::thaw() {
  narrow_.reserve(frozen_count_);
  for_each_frozen([this](std::uint32_t ns) { narrow_.push_back(ns); });
  deltas_ = std::vector<std::uint8_t>{};
  anchors_ = std::vector<Anchor>{};
  frozen_count_ = 0;
}

std::vector<double> StatAccumulator::sorted_values() const {
  std::vector<double> out;
  out.reserve(count());
  for_each_ascending([&out](std::int64_t ns) { out.push_back(Duration{ns}.millis()); });
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

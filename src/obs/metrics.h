// Deterministic metrics for experiment runs: named counters, gauges and
// log-scale histograms collected in a MetricsRegistry.
//
// Design constraints (the observability layer is on every hot path):
//   - No allocation on the record path. Histograms use fixed HDR-style
//     buckets (8 sub-buckets per power of two, <= 12.5% relative error);
//     counters and gauges are single words.
//   - Registration (name lookup) happens once, at wiring time; hot paths
//     hold handles. A handle over a disabled registry is null, so a
//     disabled metric costs exactly one branch.
//   - Determinism: no wall clocks, no addresses, no hashing order. Export
//     iterates metrics in name order, so two runs with the same seed
//     produce byte-identical output.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/time.h"

namespace domino::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { v_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, inflight counts).
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t delta) { v_ += delta; }
  [[nodiscard]] std::int64_t value() const { return v_; }
  /// High-water mark since the last reset.
  [[nodiscard]] std::int64_t max() const { return max_; }
  void update_max() {
    if (v_ > max_) max_ = v_;
  }
  void reset() { v_ = max_ = 0; }

 private:
  std::int64_t v_ = 0;
  std::int64_t max_ = 0;
};

class Histogram;

/// A point-in-time copy of a histogram's state. Two snapshots of the same
/// histogram delimit a window; HistogramDelta recovers the distribution of
/// exactly the values recorded between them (bucket counts are monotone).
struct HistogramSnapshot {
  static constexpr std::size_t kBucketCount = 8 + 60 * 8;  // == Histogram::kBucketCount
  std::array<std::uint64_t, kBucketCount> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Lifetime extrema at snapshot time (not per-window; used to clamp
  /// windowed percentiles to values that were actually ever recorded).
  std::int64_t min = 0;
  std::int64_t max = 0;
};

/// The distribution of values recorded between two snapshots of one
/// histogram (`after - before`, bucket-wise). Percentiles carry the same
/// <= 12.5% bucket-width error as Histogram::percentile; the clamp uses the
/// lifetime max, so a windowed percentile never exceeds any recorded value.
class HistogramDelta {
 public:
  HistogramDelta() = default;
  HistogramDelta(const HistogramSnapshot& before, const HistogramSnapshot& after);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Nearest-rank percentile over the window's values, p in [0, 100].
  [[nodiscard]] std::int64_t percentile(double p) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return buckets_[i]; }

 private:
  std::array<std::uint64_t, HistogramSnapshot::kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::int64_t max_ = 0;  // lifetime max at `after`
};

/// Fixed-bucket log-scale histogram of non-negative 64-bit values
/// (nanosecond latencies, byte sizes). Values 0..7 are exact; above that,
/// each power of two is split into 8 sub-buckets, so a recorded value is
/// attributed to a bucket whose width is at most 12.5% of its value.
class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 8;  // per power of two
  static constexpr std::size_t kBucketCount = 8 + 60 * kSubBuckets;
  static_assert(kBucketCount == HistogramSnapshot::kBucketCount);

  void record(std::int64_t v) {
    if (v < 0) v = 0;
    ++buckets_[bucket_index(static_cast<std::uint64_t>(v))];
    ++count_;
    sum_ += static_cast<double>(v);
    if (v < min_ || count_ == 1) min_ = v;
    if (v > max_) max_ = v;
  }
  void record(Duration d) { record(d.nanos()); }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank percentile, p in [0, 100]. Returns the upper bound of the
  /// bucket holding the rank (clamped to the exact recorded max), so the
  /// answer never underestimates by more than one bucket width.
  [[nodiscard]] std::int64_t percentile(double p) const;

  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return buckets_[i]; }
  /// Inclusive upper bound of bucket `i`'s value range.
  [[nodiscard]] static std::int64_t bucket_upper_bound(std::size_t i);

  /// Copy the current state; diff two snapshots with HistogramDelta to get
  /// the distribution of one window's worth of samples.
  [[nodiscard]] HistogramSnapshot snapshot() const;

  void reset();

 private:
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) {
    if (v < 8) return static_cast<std::size_t>(v);
    const int msb = std::bit_width(v) - 1;  // >= 3
    const auto sub = static_cast<std::size_t>((v >> (msb - 3)) & 7u);
    return 8 + static_cast<std::size_t>(msb - 3) * kSubBuckets + sub;
  }

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Owns metrics by name. Metric addresses are stable for the registry's
/// lifetime, so handles can be cached. Lookup is a map walk — wiring-time
/// only, never on a hot path.
class MetricsRegistry {
 public:
  /// Find-or-create. Throws std::logic_error if `name` already names a
  /// metric of a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Find-only (nullptr when absent or of a different kind).
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Zero every metric, keeping registrations (and handle validity).
  void reset();

  /// Visit metrics in name order. Exactly one pointer per slot is non-null.
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (const auto& [name, slot] : slots_) {
      fn(name, slot.counter.get(), slot.gauge.get(), slot.histogram.get());
    }
  }

 private:
  struct Slot {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  std::map<std::string, Slot, std::less<>> slots_;
};

/// Null-safe handles: the hot-path API. A default-constructed handle is
/// disabled and every operation on it is a single predictable branch.
///
/// A counter handle is also the owner's own count: value() is every inc()
/// made through this handle, whether or not a registry is bound, while the
/// registry's Counter sums every handle bound to the same name. Bind (assign
/// from Sink::counter) before the first inc(); assignment replaces the count.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* c) : c_(c) {}
  void inc(std::uint64_t delta = 1) {
    v_ += delta;
    if (c_ != nullptr) c_->inc(delta);
  }
  [[nodiscard]] std::uint64_t value() const { return v_; }
  [[nodiscard]] bool enabled() const { return c_ != nullptr; }

 private:
  Counter* c_ = nullptr;
  std::uint64_t v_ = 0;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* g) : g_(g) {}
  void set(std::int64_t v) {
    if (g_ != nullptr) {
      g_->set(v);
      g_->update_max();
    }
  }
  void add(std::int64_t delta) {
    if (g_ != nullptr) {
      g_->add(delta);
      g_->update_max();
    }
  }
  [[nodiscard]] bool enabled() const { return g_ != nullptr; }

 private:
  Gauge* g_ = nullptr;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(Histogram* h) : h_(h) {}
  void record(std::int64_t v) {
    if (h_ != nullptr) h_->record(v);
  }
  void record(Duration d) { record(d.nanos()); }
  [[nodiscard]] bool enabled() const { return h_ != nullptr; }

 private:
  Histogram* h_ = nullptr;
};

}  // namespace domino::obs

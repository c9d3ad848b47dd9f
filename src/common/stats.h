// Offline statistics accumulators used by the evaluation harness:
// percentiles, box-plot summaries and time-bucketed series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"

namespace domino {

/// Accumulates latency samples and answers order statistics in
/// milliseconds. Each sample is kept as its exact nanosecond count: values
/// in [0, 2^32) ns (every latency under 4.29 s) take four bytes, and the
/// rest (negatives, longer spans) spill to one eight-byte array. A query
/// answers Duration{ns}.millis() of the sample it selects, so the answers
/// are the ones a sorted vector of millis() doubles gives. Sorting is
/// deferred until a query. freeze() stores a finished set at about the size
/// of its information: the four-byte samples sorted and LEB128 delta-coded,
/// with the value and byte offset of every 64th, so a rank lookup decodes
/// at most 63 deltas.
class StatAccumulator {
 public:
  void add(Duration d) {
    if (frozen()) thaw();
    const std::int64_t ns = d.nanos();
    if (ns >= 0 && ns <= kNarrowMax) {
      narrow_.push_back(static_cast<std::uint32_t>(ns));
    } else {
      spill_.push_back(ns);
    }
    sum_ns_ += ns;
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return narrow_count() + spill_.size(); }
  [[nodiscard]] bool empty() const { return count() == 0; }
  /// From the exact nanosecond sum, so independent of sample order.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Sums in ascending sample order, so independent of insertion order and
  /// of earlier queries.
  [[nodiscard]] double stddev() const;

  /// p in [0, 100], nearest-rank percentile.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50); }

  /// Merge another accumulator's samples into this one; a frozen `other`
  /// stays frozen.
  void merge(const StatAccumulator& other);

  /// Sort the samples and store them delta-coded, for a set done growing.
  /// Every query answers as before; an add() or merge() afterwards decodes
  /// them back first.
  void freeze();
  /// Whether the four-byte samples are held delta-coded: freeze() found at
  /// least one, and no add() or merge() has decoded them since.
  [[nodiscard]] bool frozen() const { return frozen_count_ != 0; }

  /// All samples in milliseconds, sorted ascending.
  [[nodiscard]] std::vector<double> sorted_values() const;

  /// Five-number summary (p5, p25, p50, p75, p95) as used by the paper's
  /// box-and-whisker figures (Figures 2 and 11).
  struct BoxSummary {
    double p5, p25, p50, p75, p95;
  };
  [[nodiscard]] BoxSummary box_summary() const;

 private:
  static constexpr std::int64_t kNarrowMax = 0xFFFF'FFFF;
  /// Frozen samples per anchor.
  static constexpr std::size_t kBlock = 64;

  /// Frozen sample k * kBlock, and where the deltas after it start.
  struct Anchor {
    std::uint32_t value;
    std::uint32_t offset;
  };

  [[nodiscard]] std::size_t narrow_count() const { return narrow_.size() + frozen_count_; }
  void ensure_sorted() const;
  /// Decode the frozen samples back into narrow_.
  void thaw();
  /// Call f(std::uint32_t) for each frozen sample, ascending.
  template <typename F>
  void for_each_frozen(F&& f) const;
  /// Call f(std::int64_t ns) for each sample, ascending.
  template <typename F>
  void for_each_ascending(F&& f) const;
  /// The sample of 0-based `rank` in ascending order, in milliseconds.
  [[nodiscard]] double at_rank(std::size_t rank) const;

  mutable std::vector<std::uint32_t> narrow_;  // samples in [0, 2^32) ns
  mutable std::vector<std::int64_t> spill_;    // every other sample, in ns
  // The frozen form of narrow_ (then empty): LEB128 deltas between
  // consecutive sorted samples, each block's first sample in its anchor.
  std::vector<std::uint8_t> deltas_;
  std::vector<Anchor> anchors_;
  std::size_t frozen_count_ = 0;
  std::int64_t sum_ns_ = 0;
  mutable bool sorted_ = false;
};

/// Time-bucketed series: samples are assigned to fixed-width buckets by
/// timestamp; per-bucket accumulators answer queries. Used for the Figure 12
/// latency timelines and the Figure 1 per-minute heat maps.
class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width) : width_(bucket_width) {}

  void add(TimePoint at, Duration value);

  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] TimePoint bucket_start(std::size_t i) const {
    return TimePoint::epoch() + width_ * static_cast<std::int64_t>(i);
  }
  [[nodiscard]] const StatAccumulator& bucket(std::size_t i) const { return buckets_[i]; }

 private:
  Duration width_;
  std::vector<StatAccumulator> buckets_;
};

}  // namespace domino

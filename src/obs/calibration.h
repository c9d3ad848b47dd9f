// Estimator calibration: predicted-percentile arrival offsets vs realized
// offsets, per measurement target.
//
// Domino's fast path stands or falls with the prober's percentile
// estimates (paper Section 5.4): a DFP timestamp is "local now + predicted
// p95 arrival offset", so the useful calibration question is *coverage* —
// how often does the realized offset land at or below the prediction the
// estimator would have made just before the sample arrived? A perfectly
// calibrated p95 estimator covers ~95% of samples; systematic under-
// coverage on one target is exactly the stale/wrong estimate that blows
// DFP deadlines, and the prediction-audit layer (obs/predict.h) blames it.
//
// CalibrationCell accumulates one (owner, target) series; Calibration owns
// the per-target map a measure::Prober reports into, and its cells count
// through the calib.<owner>-><target>.{samples,covered} metrics. Everything
// is integer arithmetic over virtual time, so same-seed runs export
// byte-identical calibration tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/sink.h"

namespace domino::obs {

/// Rolling calibration of one predicted-percentile series against its
/// realized samples. `record` takes the prediction that was current
/// *before* the sample was folded into the estimator window.
class CalibrationCell {
 public:
  CalibrationCell() = default;
  CalibrationCell(CounterHandle samples, CounterHandle covered)
      : samples_(samples), covered_(covered) {}

  void record(Duration predicted, Duration realized) {
    samples_.inc();
    const std::int64_t margin = (predicted - realized).nanos();
    sum_margin_ns_ += margin;
    if (margin >= 0) {
      // Covered: the realized offset stayed at or below the prediction.
      covered_.inc();
    } else if (-margin > max_overshoot_ns_) {
      max_overshoot_ns_ = -margin;
    }
  }

  [[nodiscard]] std::uint64_t samples() const { return samples_.value(); }
  [[nodiscard]] std::uint64_t covered() const { return covered_.value(); }
  /// Fraction of samples with realized <= predicted (1.0 when empty, the
  /// same convention as Client::recent_fast_rate).
  [[nodiscard]] double coverage() const {
    return samples() == 0
               ? 1.0
               : static_cast<double>(covered()) / static_cast<double>(samples());
  }
  /// Mean signed margin (predicted - realized) in nanoseconds; positive
  /// means the estimator predicts conservatively (slack), negative means it
  /// systematically undershoots.
  [[nodiscard]] std::int64_t mean_margin_ns() const {
    return samples() == 0 ? 0 : sum_margin_ns_ / static_cast<std::int64_t>(samples());
  }
  [[nodiscard]] std::int64_t sum_margin_ns() const { return sum_margin_ns_; }
  /// Largest realized-above-predicted excursion seen (0 if always covered).
  [[nodiscard]] std::int64_t max_overshoot_ns() const { return max_overshoot_ns_; }

 private:
  CounterHandle samples_;
  CounterHandle covered_;
  std::int64_t sum_margin_ns_ = 0;
  std::int64_t max_overshoot_ns_ = 0;
};

/// Per-target calibration map for one measurement owner (a prober). Targets
/// are registered up front so iteration order is the owner's target order —
/// deterministic, not hash order.
class Calibration {
 public:
  Calibration() = default;
  /// Cells for every target but `owner` itself count into `sink`'s
  /// calib.<owner>-><target>.* metrics, named like the per-link net metrics.
  Calibration(NodeId owner, const std::vector<NodeId>& targets, const Sink& sink = {})
      : owner_(owner) {
    cells_.reserve(targets.size());
    for (NodeId t : targets) {
      if (t == owner) {
        cells_.push_back({t, CalibrationCell{}});
        continue;
      }
      const std::string series = "calib." + owner.to_string() + "->" + t.to_string();
      cells_.push_back({t, CalibrationCell{sink.counter(series + ".samples"),
                                           sink.counter(series + ".covered")}});
    }
  }

  void record(NodeId target, Duration predicted, Duration realized) {
    for (auto& [id, cell] : cells_) {
      if (id == target) {
        cell.record(predicted, realized);
        return;
      }
    }
  }

  [[nodiscard]] NodeId owner() const { return owner_; }
  [[nodiscard]] const CalibrationCell* cell(NodeId target) const {
    for (const auto& [id, cell] : cells_) {
      if (id == target) return &cell;
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t total_samples() const {
    std::uint64_t n = 0;
    for (const auto& [id, cell] : cells_) n += cell.samples();
    return n;
  }

  template <typename Fn>
  void visit(Fn&& fn) const {
    for (const auto& [id, cell] : cells_) fn(id, cell);
  }

 private:
  NodeId owner_;
  std::vector<std::pair<NodeId, CalibrationCell>> cells_;
};

/// One exported calibration series (owner -> target), flattened for run
/// reports and CSV.
struct CalibrationRow {
  NodeId owner;
  NodeId target;
  std::uint64_t samples = 0;
  std::uint64_t covered = 0;
  std::int64_t mean_margin_ns = 0;
  std::int64_t max_overshoot_ns = 0;

  [[nodiscard]] double coverage() const {
    return samples == 0 ? 1.0 : static_cast<double>(covered) / static_cast<double>(samples);
  }
};

/// Flatten a calibration map into rows (target order), skipping targets
/// that never produced a sample.
[[nodiscard]] std::vector<CalibrationRow> calibration_rows(const Calibration& calibration);

/// CSV with header
///   owner,target,samples,covered,coverage,mean_margin_ns,max_overshoot_ns
/// one row per (owner, target) series, in input order.
[[nodiscard]] std::string calibration_to_csv(const std::vector<CalibrationRow>& rows);

}  // namespace domino::obs

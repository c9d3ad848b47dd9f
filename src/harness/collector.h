// Latency collection for experiment runs.
//
// Commit latency: client submit -> client learns commit (the paper's metric
// throughout Section 7). Execution latency: client submit -> execution of
// the command, sampled at every replica (Section 7.2.3) — protocols whose
// followers learn commits late (leader-based notification chains) therefore
// show a heavier execution tail than protocols that execute in globally
// synchronized timestamp order. Only requests submitted within the
// measurement window are recorded, mirroring the paper's "each experiment
// lasts 90 s, and we use the results in the middle 60 s".
#pragma once

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/time.h"

namespace domino::harness {

/// Order statistics of one latency series, in milliseconds.
struct LatencyStats {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Condensed view of a collector — the single source of truth the
/// run-report exporter and the bench tables both read from.
struct LatencySummary {
  LatencyStats commit_ms;
  LatencyStats exec_ms;
  std::size_t tracked = 0;
  std::size_t committed = 0;
};

[[nodiscard]] LatencyStats summarize_stats(const StatAccumulator& acc);

class LatencyCollector {
 public:
  LatencyCollector(TimePoint window_start, TimePoint window_end, std::size_t client_count)
      : window_start_(window_start), window_end_(window_end), per_client_(client_count) {}

  /// Wire into ClientBase::set_send_hook. `client_index` selects the
  /// per-client accumulator.
  void on_send(std::size_t client_index, const RequestId& id, TimePoint at);

  /// Wire into ClientBase::set_commit_hook.
  void on_commit(std::size_t client_index, const RequestId& id, TimePoint sent_at,
                 TimePoint committed_at);

  /// Wire into every replica's execute hook; each replica's execution of a
  /// tracked command contributes one sample.
  void on_execute(const RequestId& id, TimePoint at);

  [[nodiscard]] const StatAccumulator& commit_ms() const { return commit_; }
  [[nodiscard]] const StatAccumulator& exec_ms() const { return exec_; }
  [[nodiscard]] const StatAccumulator& commit_ms_of(std::size_t client) const {
    return per_client_.at(client);
  }
  [[nodiscard]] std::size_t tracked_count() const { return tracked_; }
  [[nodiscard]] std::size_t committed_count() const { return committed_; }

  /// Snapshot the order statistics of everything collected so far.
  [[nodiscard]] LatencySummary summarize() const;

 private:
  TimePoint window_start_;
  TimePoint window_end_;
  StatAccumulator commit_;
  StatAccumulator exec_;
  std::vector<StatAccumulator> per_client_;
  std::unordered_map<RequestId, TimePoint> pending_exec_;  // tracked, not yet executed
  std::size_t tracked_ = 0;
  std::size_t committed_ = 0;
};

}  // namespace domino::harness

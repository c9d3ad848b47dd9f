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

#include <cstdint>
#include <unordered_map>
#include <utility>
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
  /// Every sample the collector holds; see release().
  struct Samples {
    StatAccumulator commit_ms;                      // all clients
    std::vector<StatAccumulator> commit_per_client;
    StatAccumulator exec_ms;
  };

  LatencyCollector(TimePoint window_start, TimePoint window_end, std::size_t client_count)
      : window_start_(window_start), window_end_(window_end) {
    samples_.commit_per_client.resize(client_count);
  }

  /// Wire into ClientBase::set_send_hook. `client_index` selects the
  /// per-client accumulator. A re-sent id keeps its first send time.
  void on_send(std::size_t client_index, const RequestId& id, TimePoint at);

  /// Wire into ClientBase::set_commit_hook.
  void on_commit(std::size_t client_index, const RequestId& id, TimePoint sent_at,
                 TimePoint committed_at);

  /// Wire into every replica's execute hook; each replica's execution of a
  /// tracked command contributes one sample.
  void on_execute(const RequestId& id, TimePoint at);

  [[nodiscard]] const StatAccumulator& commit_ms() const { return samples_.commit_ms; }
  [[nodiscard]] const StatAccumulator& exec_ms() const { return samples_.exec_ms; }
  [[nodiscard]] const StatAccumulator& commit_ms_of(std::size_t client) const {
    return samples_.commit_per_client.at(client);
  }
  [[nodiscard]] std::size_t tracked_count() const { return tracked_; }
  [[nodiscard]] std::size_t committed_count() const { return committed_; }

  /// Snapshot the order statistics of everything collected so far.
  [[nodiscard]] LatencySummary summarize() const;

  /// Move every sample out, leaving the collector with none.
  [[nodiscard]] Samples release() { return std::exchange(samples_, Samples{}); }

 private:
  /// One client's tracked send times, indexed by seq - first_seq. The
  /// workload numbers a client's requests consecutively, so the tracked
  /// seqs of a window are dense; a gap holds kUntracked.
  struct ClientSends {
    std::uint64_t first_seq = 0;
    std::vector<TimePoint> at;
  };
  static constexpr TimePoint kUntracked = TimePoint::max();

  TimePoint window_start_;
  TimePoint window_end_;
  Samples samples_;
  std::vector<ClientSends> sends_;                        // by client index
  std::unordered_map<NodeId, std::size_t> client_index_;  // client node -> sends_ index
  std::size_t tracked_ = 0;
  std::size_t committed_ = 0;
};

}  // namespace domino::harness

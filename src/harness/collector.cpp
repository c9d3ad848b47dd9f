#include "harness/collector.h"

namespace domino::harness {

void LatencyCollector::on_send(std::size_t client_index, const RequestId& id, TimePoint at) {
  if (at < window_start_ || at > window_end_) return;
  if (client_index >= sends_.size()) sends_.resize(client_index + 1);
  ClientSends& sends = sends_[client_index];
  if (sends.at.empty()) {
    client_index_.emplace(id.client, client_index);
    sends.first_seq = id.seq;
  } else if (id.seq < sends.first_seq) {
    sends.at.insert(sends.at.begin(), sends.first_seq - id.seq, kUntracked);
    sends.first_seq = id.seq;
  }
  const std::uint64_t slot = id.seq - sends.first_seq;
  if (slot >= sends.at.size()) sends.at.resize(slot + 1, kUntracked);
  if (sends.at[slot] != kUntracked) return;
  sends.at[slot] = at;
  ++tracked_;
}

void LatencyCollector::on_commit(std::size_t client_index, const RequestId& id,
                                 TimePoint sent_at, TimePoint committed_at) {
  if (sent_at < window_start_ || sent_at > window_end_) return;
  (void)id;
  const Duration latency = committed_at - sent_at;
  samples_.commit_ms.add(latency);
  if (client_index < samples_.commit_per_client.size()) {
    samples_.commit_per_client[client_index].add(latency);
  }
  ++committed_;
}

void LatencyCollector::on_execute(const RequestId& id, TimePoint at) {
  const auto client = client_index_.find(id.client);
  if (client == client_index_.end()) return;  // no tracked send from this client
  const ClientSends& sends = sends_[client->second];
  if (id.seq < sends.first_seq || id.seq - sends.first_seq >= sends.at.size()) return;
  const TimePoint sent = sends.at[id.seq - sends.first_seq];
  if (sent == kUntracked) return;
  samples_.exec_ms.add(at - sent);
}

LatencyStats summarize_stats(const StatAccumulator& acc) {
  LatencyStats s;
  s.count = acc.count();
  if (acc.empty()) return s;
  s.mean = acc.mean();
  s.min = acc.min();
  s.max = acc.max();
  s.p50 = acc.percentile(50);
  s.p95 = acc.percentile(95);
  s.p99 = acc.percentile(99);
  return s;
}

LatencySummary LatencyCollector::summarize() const {
  LatencySummary s;
  s.commit_ms = summarize_stats(samples_.commit_ms);
  s.exec_ms = summarize_stats(samples_.exec_ms);
  s.tracked = tracked_;
  s.committed = committed_;
  return s;
}

}  // namespace domino::harness

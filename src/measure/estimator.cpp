#include "measure/estimator.h"

#include "common/window_estimator.h"

namespace domino::measure {

Duration estimate_dfp_latency(const LatencyView& view, const std::vector<NodeId>& replicas) {
  std::vector<Duration> rtts;
  rtts.reserve(replicas.size());
  for (NodeId r : replicas) rtts.push_back(view.rtt_estimate(r));
  return kth_smallest(std::move(rtts), supermajority(replicas.size()));
}

Duration estimate_replication_latency(const LatencyView& view, NodeId self,
                                      const std::vector<NodeId>& replicas) {
  std::vector<Duration> rtts;
  rtts.reserve(replicas.size());
  for (NodeId r : replicas) {
    rtts.push_back(r == self ? Duration::zero() : view.rtt_estimate(r));
  }
  return kth_smallest(std::move(rtts), majority(replicas.size()));
}

DmEstimate estimate_dm_latency(const LatencyView& view, const std::vector<NodeId>& replicas) {
  DmEstimate best;
  for (NodeId r : replicas) {
    // A stale feed means the replica (or the path to it) has gone quiet;
    // never pick it as a DM leader (Section 5.8's failure heuristic).
    if (view.is_stale(r)) continue;
    const Duration er = view.rtt_estimate(r);
    const Duration lr = view.replication_latency_of(r);
    if (er == Duration::max() || lr == Duration::max()) continue;
    const Duration total = er + lr;
    if (total < best.latency) {
      best.latency = total;
      best.leader = r;
    }
  }
  return best;
}

TimePoint dfp_request_timestamp(const LatencyView& view, TimePoint local_now,
                                const std::vector<NodeId>& replicas,
                                Duration additional_delay) {
  std::vector<Duration> offsets;
  offsets.reserve(replicas.size());
  for (NodeId r : replicas) offsets.push_back(view.owd_estimate(r));
  const Duration q_offset = kth_smallest(std::move(offsets), supermajority(replicas.size()));
  if (q_offset == Duration::max()) return TimePoint::max();
  return local_now + q_offset + additional_delay;
}

}  // namespace domino::measure

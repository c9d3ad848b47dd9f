// Commit-latency and arrival-time estimators (paper Sections 5.4 and 5.6).
//
// Pure functions over the prober's per-replica estimates:
//   - LatDFP  = D_q, the q-th smallest client->replica RTT (q = supermajority),
//   - L_r     = D_m of a replica's RTTs to every replica with self = 0
//               (m = majority) — the leader's replication latency,
//   - LatDM   = min_r (E_r + L_r),
//   - DFP request timestamps = local_now + q-th smallest predicted arrival
//     offset + additional delay.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "measure/latency_view.h"
#include "measure/quorum.h"

namespace domino::measure {

/// Estimated DFP commit latency: the RTT to the furthest replica in the
/// closest supermajority (Section 5.6).
[[nodiscard]] Duration estimate_dfp_latency(const LatencyView& view,
                                            const std::vector<NodeId>& replicas);

/// A replica's replication latency when acting as a DM leader: the m-th
/// smallest of its RTTs to all replicas, with the delay to itself zero.
[[nodiscard]] Duration estimate_replication_latency(const LatencyView& view, NodeId self,
                                                    const std::vector<NodeId>& replicas);

struct DmEstimate {
  Duration latency = Duration::max();
  NodeId leader;  // the replica achieving the minimum
};

/// Estimated DM commit latency and the leader to use: min over replicas of
/// (client->replica RTT + piggybacked L_r). Replicas whose measurement feed
/// is stale (LatencyView::is_stale) are never chosen.
[[nodiscard]] DmEstimate estimate_dm_latency(const LatencyView& view,
                                             const std::vector<NodeId>& replicas);

/// DFP request timestamp (Section 5.4): the client's local now plus the
/// q-th smallest per-replica predicted arrival offset (OWD + skew, at the
/// prober's configured percentile), plus `additional_delay` (the Figure 9 /
/// Figure 11 knob).
[[nodiscard]] TimePoint dfp_request_timestamp(const LatencyView& view, TimePoint local_now,
                                              const std::vector<NodeId>& replicas,
                                              Duration additional_delay);

}  // namespace domino::measure

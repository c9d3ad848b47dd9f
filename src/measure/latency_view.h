// Abstract source of per-replica latency estimates.
//
// Implemented by Prober (a node measuring for itself), ProxyFeed (a node
// consuming a co-located proxy's measurements, Section 5.6: "If there are
// many clients in one datacenter, we can reduce the number of probing
// messages by having one dedicated proxy to measure and estimate the
// network delays to replicas") and harness::TopologyView (a topology's RTT
// matrix, for the Section 4 analysis). The prober and the feed answer at
// the prober's configured percentile, the matrix view with the matrix's.
#pragma once

#include "common/ids.h"
#include "common/time.h"

namespace domino::measure {

class LatencyView {
 public:
  virtual ~LatencyView() = default;

  /// RTT estimate to `target`, Duration::max() if unknown or failed.
  [[nodiscard]] virtual Duration rtt_estimate(NodeId target) const = 0;

  /// Arrival-offset (one-way delay + clock skew) estimate.
  [[nodiscard]] virtual Duration owd_estimate(NodeId target) const = 0;

  /// Latest replication-latency estimate L_r advertised by `target`.
  [[nodiscard]] virtual Duration replication_latency_of(NodeId target) const = 0;

  /// True when the estimate for `target` has gone stale: the measurement
  /// feed has not heard from it recently enough to trust the numbers.
  /// Consumers choosing a leader should skip stale targets (the
  /// fault-tolerance heuristic of Section 5.8).
  [[nodiscard]] virtual bool is_stale(NodeId target) const = 0;
};

}  // namespace domino::measure

// Incident log: the rare protocol events a run's readers actually use.
//
// A TraceRecorder appends fault-injector transitions (crashes, partitions,
// degradations, route changes), client retries and abandons, and amnesiac
// recovery start/done. Per-message and per-command activity is not logged
// here: the metrics counters (rpc.received.*, the per-reason net drop
// counters, domino.dfp.*) and, with command spans on, the SpanStore edges
// already carry it. So a fault-free run records nothing and allocates no
// event storage, and a faulted run keeps every incident.
//
// Timestamps are virtual time only (never a wall clock), and events are
// recorded in simulator execution order, so two runs with the same seed
// produce byte-identical trace output — the property the evaluation harness
// relies on to diff runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace domino::obs {

/// The incident taxonomy (see DESIGN.md "Observability").
enum class EventKind : std::uint8_t {
  kNodeCrash,            // fault injector crashed a node
  kNodeRecover,          // fault injector recovered a node
  kLinkPartition,        // directed dc link partitioned (node/peer = dc indices)
  kLinkHeal,             // directed dc link healed
  kLinkDegrade,          // degradation epoch began (value = multiplier x1000)
  kLinkRestore,          // degradation epoch ended
  kRouteChange,          // permanent base-delay change (value = new base ns)
  kClientRetry,          // client re-proposed a timed-out request
  kClientAbandon,        // client gave up on a request (retries exhausted)
  kRecoveryStart,        // amnesiac restart began (value = restart epoch)
  kRecoveryDone,         // replica rejoined after catch-up (value = ns spent)
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

struct TraceEvent {
  TimePoint at;                       // virtual (true) time
  EventKind kind = EventKind::kNodeCrash;
  NodeId node;                        // acting node
  NodeId peer = NodeId::invalid();    // counterpart, if any
  RequestId request{NodeId::invalid(), 0};  // subject request, if any
  std::int64_t value = 0;             // kind-specific (epoch, delay ns, attempt)
};

class TraceRecorder {
 public:
  void record(const TraceEvent& event) { events_.push_back(event); }

  [[nodiscard]] std::uint64_t total_recorded() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Every recorded event, oldest first.
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace domino::obs

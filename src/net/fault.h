// Deterministic fault injection for the simulated WAN.
//
// A FaultSchedule is a declarative list of timed fault events — node
// crash/recover, directed datacenter-link partition/heal, link degradation
// epochs (a temporary base-delay multiplier plus extra spike probability
// layered over whatever LatencyModel the link runs), and route-change steps
// (a permanent base-delay replacement) — built with a fluent API and
// installed onto the virtual-time event queue by a FaultInjector.
//
// The FaultInjector is the Network's single drop/deform decision point:
// every packet asks it (a) whether to drop, and with which DropReason, and
// (b) how to deform the sampled one-way delay given the active degradation
// epochs and route overrides. All randomness (degradation spikes) comes
// from per-directed-link forked RNG streams owned by the injector, so the
// same seed and schedule produce an identical drop/deliver trace — the
// property the chaos tests diff on (see FaultInjector::digest()).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "obs/sink.h"
#include "sim/simulator.h"

namespace domino::net {

/// Why a packet was dropped. kNone means "deliver it".
enum class DropReason : std::uint8_t {
  kNone = 0,
  kCrashedSource,  // sender is crashed
  kCrashedDest,    // destination is crashed (at send or at delivery)
  kPartition,      // the directed datacenter link is partitioned
};
inline constexpr std::size_t kDropReasonCount = 4;

[[nodiscard]] const char* drop_reason_name(DropReason reason);

/// One timed fault event. Build via FaultSchedule, not directly.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,         // node: neither sends nor receives from `at`
    kRecover,       // node: resumes
    kPartition,     // directed dc link from->to: packets dropped
    kHeal,          // directed dc link from->to: packets flow again
    kDegradeStart,  // directed dc link: delay multiplier + extra spikes
    kDegradeEnd,    // end of the degradation epoch
    kRouteChange,   // directed dc link: permanent base-delay replacement
  };

  TimePoint at;
  Kind kind = Kind::kCrash;
  NodeId node;                       // kCrash / kRecover
  std::size_t from_dc = 0;           // link events
  std::size_t to_dc = 0;
  double delay_multiplier = 1.0;     // kDegradeStart
  double extra_spike_prob = 0.0;     // kDegradeStart
  Duration spike_mean = Duration::zero();  // kDegradeStart
  Duration new_base = Duration::zero();    // kRouteChange
};

/// Declarative fault timeline. Events may be appended in any order; the
/// injector sorts by time (stable, so same-instant events apply in
/// insertion order).
class FaultSchedule {
 public:
  FaultSchedule& crash(TimePoint at, NodeId node);
  FaultSchedule& recover(TimePoint at, NodeId node);
  /// Crash at `at`, recover `downtime` later.
  FaultSchedule& crash_for(TimePoint at, NodeId node, Duration downtime);

  /// Drop all packets on the directed dc link from->to starting at `at`.
  FaultSchedule& partition(TimePoint at, std::size_t from_dc, std::size_t to_dc);
  FaultSchedule& heal(TimePoint at, std::size_t from_dc, std::size_t to_dc);
  /// Partition both directions at `at` and heal both `duration` later.
  FaultSchedule& partition_both_for(TimePoint at, std::size_t dc_a, std::size_t dc_b,
                                    Duration duration);

  /// Degradation epoch [at, at + duration): sampled delays are multiplied
  /// by `multiplier`, and each packet additionally suffers an exponential
  /// spike of mean `spike_mean` with probability `extra_spike_prob`.
  FaultSchedule& degrade(TimePoint at, Duration duration, std::size_t from_dc,
                         std::size_t to_dc, double multiplier,
                         double extra_spike_prob = 0.0,
                         Duration spike_mean = milliseconds(8));

  /// Permanent base-delay replacement (route change) from `at` on: the
  /// link's sampled delay is shifted by (new_base - model_base), preserving
  /// the model's jitter around the new base.
  FaultSchedule& route_change(TimePoint at, std::size_t from_dc, std::size_t to_dc,
                              Duration new_base);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

/// Runtime fault state + the drop/deform decision point. Owned by
/// net::Network; exposed so tests and the harness can inject faults
/// directly or install whole schedules.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& simulator, std::size_t num_dcs, std::uint64_t seed);

  /// Attach an observability sink: per-reason drop counters plus a trace
  /// event per fault transition and per drop.
  void bind_obs(const obs::Sink& sink);

  /// Schedule every event of `schedule` on the simulator's virtual-time
  /// queue. May be called more than once; schedules compose.
  void install(const FaultSchedule& schedule);

  /// Immediate fault operations (also used by the scheduled events).
  void crash(NodeId node);
  void recover(NodeId node);
  void partition(std::size_t from_dc, std::size_t to_dc);
  void heal(std::size_t from_dc, std::size_t to_dc);
  void degrade(std::size_t from_dc, std::size_t to_dc, double multiplier,
               double extra_spike_prob, Duration spike_mean);
  void end_degrade(std::size_t from_dc, std::size_t to_dc);
  void route_change(std::size_t from_dc, std::size_t to_dc, Duration new_base);

  /// Invoked on every recover (scheduled or immediate). The Network uses
  /// this to reset FIFO channel state for the recovered node.
  void set_recover_hook(std::function<void(NodeId)> hook) {
    recover_hook_ = std::move(hook);
  }

  /// Invoked after the recover hook on every recover. The harness uses this
  /// to model amnesiac crashes: the hook wipes the recovered replica's
  /// volatile state, triggering durable-image replay and peer catch-up.
  /// Unset = crashes keep memory (the pre-recovery fault model).
  void set_restart_hook(std::function<void(NodeId)> hook) {
    restart_hook_ = std::move(hook);
  }

  [[nodiscard]] bool is_crashed(NodeId node) const { return crashed_.contains(node); }

  /// The drop decision for a packet src(@src_dc) -> dst(@dst_dc).
  [[nodiscard]] DropReason drop_reason(NodeId src, std::size_t src_dc, NodeId dst,
                                       std::size_t dst_dc) const;

  /// Deform a sampled one-way delay: apply the route override (shift the
  /// base while preserving jitter) and any active degradation epoch
  /// (multiplier + extra spikes). `model_base` is the link model's
  /// deterministic floor at sampling time.
  [[nodiscard]] Duration deform(std::size_t from_dc, std::size_t to_dc, Duration sampled,
                                Duration model_base);

  /// Record a drop (updates the per-reason counters and the rolling
  /// digest). `at` is the drop time.
  void count_drop(DropReason reason, TimePoint at, NodeId src, NodeId dst);

  [[nodiscard]] std::uint64_t drops(DropReason reason) const {
    return obs_drop_reason_[static_cast<std::size_t>(reason)].value();
  }

  /// Order-sensitive FNV-1a digest over every fault transition and drop
  /// (kind, virtual time, endpoints). Two runs with the same seed and
  /// schedule produce the same digest; any divergence in fault/drop
  /// behaviour changes it.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Fault transitions applied so far (for tests; drops excluded).
  [[nodiscard]] std::uint64_t transitions() const { return obs_faults_applied_.value(); }

  /// Total crashed time over all completed crash->recover pairs, for the
  /// recovery accounting (recovery.downtime_ns records each one).
  [[nodiscard]] Duration total_downtime() const { return total_downtime_; }

 private:
  struct Degradation {
    double multiplier = 1.0;
    double extra_spike_prob = 0.0;
    Duration spike_mean = Duration::zero();
    bool active = false;
  };

  void mix(std::uint64_t v);
  void trace_link_event(obs::EventKind kind, TimePoint at, std::size_t from_dc,
                        std::size_t to_dc, std::int64_t value);
  [[nodiscard]] std::size_t link_index(std::size_t from_dc, std::size_t to_dc) const {
    return from_dc * num_dcs_ + to_dc;
  }
  void check_dc(std::size_t dc, const char* what) const;

  sim::Simulator& sim_;
  std::size_t num_dcs_;
  std::unordered_set<NodeId> crashed_;
  std::unordered_map<NodeId, TimePoint> crashed_at_;  // downtime accounting
  Duration total_downtime_ = Duration::zero();
  std::vector<bool> partitioned_;                       // [from*n+to]
  std::vector<Degradation> degraded_;                   // [from*n+to]
  std::vector<std::optional<Duration>> route_base_;     // [from*n+to]
  std::vector<Rng> spike_rngs_;                         // [from*n+to]
  std::function<void(NodeId)> recover_hook_;
  std::function<void(NodeId)> restart_hook_;

  std::uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis

  obs::Sink obs_;
  obs::CounterHandle obs_drop_reason_[kDropReasonCount];
  obs::CounterHandle obs_faults_applied_;
  obs::HistogramHandle obs_downtime_ns_;
};

}  // namespace domino::net

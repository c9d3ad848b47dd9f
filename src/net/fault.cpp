#include "net/fault.h"

#include <algorithm>
#include <stdexcept>

namespace domino::net {

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kNone: return "none";
    case DropReason::kCrashedSource: return "crashed_src";
    case DropReason::kCrashedDest: return "crashed_dst";
    case DropReason::kPartition: return "partition";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FaultSchedule builders

FaultSchedule& FaultSchedule::crash(TimePoint at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::kCrash;
  e.node = node;
  events_.push_back(e);
  return *this;
}

FaultSchedule& FaultSchedule::recover(TimePoint at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::kRecover;
  e.node = node;
  events_.push_back(e);
  return *this;
}

FaultSchedule& FaultSchedule::crash_for(TimePoint at, NodeId node, Duration downtime) {
  return crash(at, node).recover(at + downtime, node);
}

FaultSchedule& FaultSchedule::partition(TimePoint at, std::size_t from_dc,
                                        std::size_t to_dc) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::kPartition;
  e.from_dc = from_dc;
  e.to_dc = to_dc;
  events_.push_back(e);
  return *this;
}

FaultSchedule& FaultSchedule::heal(TimePoint at, std::size_t from_dc, std::size_t to_dc) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::kHeal;
  e.from_dc = from_dc;
  e.to_dc = to_dc;
  events_.push_back(e);
  return *this;
}

FaultSchedule& FaultSchedule::partition_both_for(TimePoint at, std::size_t dc_a,
                                                 std::size_t dc_b, Duration duration) {
  partition(at, dc_a, dc_b);
  partition(at, dc_b, dc_a);
  heal(at + duration, dc_a, dc_b);
  heal(at + duration, dc_b, dc_a);
  return *this;
}

FaultSchedule& FaultSchedule::degrade(TimePoint at, Duration duration, std::size_t from_dc,
                                      std::size_t to_dc, double multiplier,
                                      double extra_spike_prob, Duration spike_mean) {
  FaultEvent start;
  start.at = at;
  start.kind = FaultEvent::Kind::kDegradeStart;
  start.from_dc = from_dc;
  start.to_dc = to_dc;
  start.delay_multiplier = multiplier;
  start.extra_spike_prob = extra_spike_prob;
  start.spike_mean = spike_mean;
  events_.push_back(start);

  FaultEvent end;
  end.at = at + duration;
  end.kind = FaultEvent::Kind::kDegradeEnd;
  end.from_dc = from_dc;
  end.to_dc = to_dc;
  events_.push_back(end);
  return *this;
}

FaultSchedule& FaultSchedule::route_change(TimePoint at, std::size_t from_dc,
                                           std::size_t to_dc, Duration new_base) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::kRouteChange;
  e.from_dc = from_dc;
  e.to_dc = to_dc;
  e.new_base = new_base;
  events_.push_back(e);
  return *this;
}

// ---------------------------------------------------------------------------
// FaultInjector

FaultInjector::FaultInjector(sim::Simulator& simulator, std::size_t num_dcs,
                             std::uint64_t seed)
    : sim_(simulator), num_dcs_(num_dcs) {
  const std::size_t n = num_dcs * num_dcs;
  partitioned_.assign(n, false);
  degraded_.assign(n, Degradation{});
  route_base_.assign(n, std::nullopt);
  Rng root(seed ^ 0xFA017ull);
  spike_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) spike_rngs_.push_back(root.fork());
}

void FaultInjector::bind_obs(const obs::Sink& sink) {
  obs_ = sink;
  obs_faults_applied_ = sink.counter("fault.transitions");
  obs_downtime_ns_ = sink.histogram("recovery.downtime_ns");
  for (std::size_t r = 1; r < kDropReasonCount; ++r) {
    obs_drop_reason_[r] = sink.counter(
        std::string("net.drops.") + drop_reason_name(static_cast<DropReason>(r)));
  }
}

void FaultInjector::check_dc(std::size_t dc, const char* what) const {
  if (dc >= num_dcs_) {
    throw std::out_of_range(std::string("FaultInjector::") + what + ": bad dc index");
  }
}

void FaultInjector::mix(std::uint64_t v) {
  // FNV-1a over the 8 bytes of v, order-sensitive.
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xFFu;
    digest_ *= 0x100000001b3ull;
  }
}

void FaultInjector::trace_link_event(obs::EventKind kind, TimePoint at,
                                     std::size_t from_dc, std::size_t to_dc,
                                     std::int64_t value) {
  obs_.record(obs::TraceEvent{.at = at,
                              .kind = kind,
                              .node = NodeId{static_cast<std::uint32_t>(from_dc)},
                              .peer = NodeId{static_cast<std::uint32_t>(to_dc)},
                              .value = value});
}

void FaultInjector::install(const FaultSchedule& schedule) {
  // Stable sort so same-instant events apply in insertion order — the
  // property that makes two installs of the same schedule identical.
  std::vector<FaultEvent> events = schedule.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  for (const FaultEvent& e : events) {
    sim_.schedule_at(e.at, [this, e] {
      switch (e.kind) {
        case FaultEvent::Kind::kCrash: crash(e.node); break;
        case FaultEvent::Kind::kRecover: recover(e.node); break;
        case FaultEvent::Kind::kPartition: partition(e.from_dc, e.to_dc); break;
        case FaultEvent::Kind::kHeal: heal(e.from_dc, e.to_dc); break;
        case FaultEvent::Kind::kDegradeStart:
          degrade(e.from_dc, e.to_dc, e.delay_multiplier, e.extra_spike_prob,
                  e.spike_mean);
          break;
        case FaultEvent::Kind::kDegradeEnd: end_degrade(e.from_dc, e.to_dc); break;
        case FaultEvent::Kind::kRouteChange:
          route_change(e.from_dc, e.to_dc, e.new_base);
          break;
      }
    });
  }
}

void FaultInjector::crash(NodeId node) {
  if (!crashed_.insert(node).second) return;
  crashed_at_[node] = sim_.now();
  obs_faults_applied_.inc();
  mix(0x01);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(node.value());
  obs_.record(obs::TraceEvent{
      .at = sim_.now(), .kind = obs::EventKind::kNodeCrash, .node = node});
}

void FaultInjector::recover(NodeId node) {
  if (crashed_.erase(node) == 0) return;
  obs_faults_applied_.inc();
  mix(0x02);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(node.value());
  if (const auto it = crashed_at_.find(node); it != crashed_at_.end()) {
    const Duration downtime = sim_.now() - it->second;
    total_downtime_ += downtime;
    obs_downtime_ns_.record(downtime);
    crashed_at_.erase(it);
  }
  obs_.record(obs::TraceEvent{
      .at = sim_.now(), .kind = obs::EventKind::kNodeRecover, .node = node});
  if (recover_hook_) recover_hook_(node);
  // Restart (amnesia) runs after the transport forgot the node's channel
  // state, so nothing the wiped replica sends is ordered behind pre-crash
  // deliveries.
  if (restart_hook_) restart_hook_(node);
}

void FaultInjector::partition(std::size_t from_dc, std::size_t to_dc) {
  check_dc(from_dc, "partition");
  check_dc(to_dc, "partition");
  std::vector<bool>::reference flag = partitioned_[link_index(from_dc, to_dc)];
  if (flag) return;
  flag = true;
  obs_faults_applied_.inc();
  mix(0x03);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(link_index(from_dc, to_dc));
  trace_link_event(obs::EventKind::kLinkPartition, sim_.now(), from_dc, to_dc, 0);
}

void FaultInjector::heal(std::size_t from_dc, std::size_t to_dc) {
  check_dc(from_dc, "heal");
  check_dc(to_dc, "heal");
  std::vector<bool>::reference flag = partitioned_[link_index(from_dc, to_dc)];
  if (!flag) return;
  flag = false;
  obs_faults_applied_.inc();
  mix(0x04);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(link_index(from_dc, to_dc));
  trace_link_event(obs::EventKind::kLinkHeal, sim_.now(), from_dc, to_dc, 0);
}

void FaultInjector::degrade(std::size_t from_dc, std::size_t to_dc, double multiplier,
                            double extra_spike_prob, Duration spike_mean) {
  check_dc(from_dc, "degrade");
  check_dc(to_dc, "degrade");
  Degradation& d = degraded_[link_index(from_dc, to_dc)];
  d.multiplier = multiplier;
  d.extra_spike_prob = extra_spike_prob;
  d.spike_mean = spike_mean;
  d.active = true;
  obs_faults_applied_.inc();
  mix(0x05);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(link_index(from_dc, to_dc));
  trace_link_event(obs::EventKind::kLinkDegrade, sim_.now(), from_dc, to_dc,
                   static_cast<std::int64_t>(multiplier * 1000.0));
}

void FaultInjector::end_degrade(std::size_t from_dc, std::size_t to_dc) {
  check_dc(from_dc, "end_degrade");
  check_dc(to_dc, "end_degrade");
  Degradation& d = degraded_[link_index(from_dc, to_dc)];
  if (!d.active) return;
  d = Degradation{};
  obs_faults_applied_.inc();
  mix(0x06);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(link_index(from_dc, to_dc));
  trace_link_event(obs::EventKind::kLinkRestore, sim_.now(), from_dc, to_dc, 0);
}

void FaultInjector::route_change(std::size_t from_dc, std::size_t to_dc,
                                 Duration new_base) {
  check_dc(from_dc, "route_change");
  check_dc(to_dc, "route_change");
  route_base_[link_index(from_dc, to_dc)] = new_base;
  obs_faults_applied_.inc();
  mix(0x07);
  mix(static_cast<std::uint64_t>(sim_.now().nanos()));
  mix(link_index(from_dc, to_dc));
  trace_link_event(obs::EventKind::kRouteChange, sim_.now(), from_dc, to_dc,
                   new_base.nanos());
}

bool FaultInjector::is_partitioned(std::size_t from_dc, std::size_t to_dc) const {
  return partitioned_[link_index(from_dc, to_dc)];
}

DropReason FaultInjector::drop_reason(NodeId src, std::size_t src_dc, NodeId dst,
                                      std::size_t dst_dc) const {
  if (crashed_.contains(src)) return DropReason::kCrashedSource;
  if (crashed_.contains(dst)) return DropReason::kCrashedDest;
  if (src_dc != dst_dc && partitioned_[link_index(src_dc, dst_dc)]) {
    return DropReason::kPartition;
  }
  return DropReason::kNone;
}

Duration FaultInjector::deform(std::size_t from_dc, std::size_t to_dc, Duration sampled,
                               Duration model_base) {
  const std::size_t idx = link_index(from_dc, to_dc);
  Duration d = sampled;
  if (route_base_[idx].has_value()) {
    // Shift the base while keeping the model's jitter around it.
    d = d - model_base + *route_base_[idx];
    if (d < Duration::zero()) d = Duration::zero();
  }
  const Degradation& deg = degraded_[idx];
  if (deg.active) {
    d = scale(d, deg.multiplier);
    if (deg.extra_spike_prob > 0.0 && spike_rngs_[idx].chance(deg.extra_spike_prob)) {
      d += Duration{static_cast<std::int64_t>(
          spike_rngs_[idx].exponential(static_cast<double>(deg.spike_mean.nanos())))};
    }
  }
  return d;
}

void FaultInjector::count_drop(DropReason reason, TimePoint at, NodeId src, NodeId dst) {
  obs_drop_reason_[static_cast<std::size_t>(reason)].inc();
  mix(0x10 + static_cast<std::uint64_t>(reason));
  mix(static_cast<std::uint64_t>(at.nanos()));
  mix((static_cast<std::uint64_t>(src.value()) << 32) | dst.value());
}

}  // namespace domino::net

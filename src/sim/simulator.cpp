#include "sim/simulator.h"

#include <utility>

namespace domino::sim {

void Simulator::bind_obs(const obs::Sink& sink) {
  obs_executed_ = sink.counter("sim.events_executed");
  obs_scheduled_ = sink.counter("sim.events_scheduled");
  obs_queue_depth_ = sink.gauge("sim.queue_depth");
}

void Simulator::schedule_at(TimePoint at, Action action) {
  if (at < now_) at = now_;
  queue_.push(Event{at, next_seq_++, std::move(action)});
  obs_scheduled_.inc();
  obs_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
}

void Simulator::schedule_after(Duration delay, Action action) {
  if (delay < Duration::zero()) delay = Duration::zero();
  schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; move out via const_cast is UB-free
  // here because we pop immediately and Event's members are not const.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.at;
  obs_executed_.inc();
  obs_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  ev.action();
  return true;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace domino::sim

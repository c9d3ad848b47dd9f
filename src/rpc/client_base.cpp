#include "rpc/client_base.h"

namespace domino::rpc {

ClientBase::ClientBase(NodeId id, std::size_t dc, Context& context, sim::LocalClock clock)
    : Node(id, dc, context, clock) {
  init_obs();
}

void ClientBase::init_obs() {
  obs_submitted_ = obs_sink().counter("client.submitted");
  obs_committed_ = obs_sink().counter("client.committed");
  obs_retries_ = obs_sink().counter("client.retries");
  obs_abandoned_ = obs_sink().counter("client.abandoned");
  obs_commit_latency_ = obs_sink().histogram("client.commit_latency_ns");
}

void ClientBase::start_load(sm::WorkloadGenerator& workload, double rps) {
  if (rps <= 0.0) return;
  const Duration interval{static_cast<std::int64_t>(1e9 / rps)};
  load_timer_.start(context(), interval, interval,
                    [this, &workload] { submit(workload.next(id())); });
}

void ClientBase::stop_load() { load_timer_.stop(); }

void ClientBase::set_request_timeout(Duration timeout, std::size_t max_retries) {
  request_timeout_ = timeout;
  max_retries_ = max_retries;
}

void ClientBase::submit(sm::Command command) {
  sent_at_.emplace(command.id, true_now());
  obs_submitted_.inc();
  if (send_hook_) send_hook_(command.id, true_now());
  // Open the command's root span and propose inside its context, so every
  // message the proposal causes carries the trace downstream.
  const obs::TraceContext prev_span = active_span();
  if (span_store() != nullptr) {
    const obs::TraceId trace = obs::trace_id_of(command.id);
    const obs::SpanId root = span_store()->open_root(trace, id(), "command", true_now());
    if (root != 0) {
      root_spans_.emplace(command.id, root);
      set_active_span(obs::TraceContext{trace, root});
    }
  }
  if (request_timeout_ > Duration::zero()) {
    const RequestId rid = command.id;
    pending_.emplace(rid, PendingRequest{command, 0});
    propose(command);
    set_active_span(prev_span);
    arm_timeout(rid, 0);
    return;
  }
  propose(command);
  set_active_span(prev_span);
}

obs::SpanId ClientBase::root_span_of(const RequestId& id) const {
  const auto it = root_spans_.find(id);
  return it == root_spans_.end() ? 0 : it->second;
}

void ClientBase::arm_timeout(const RequestId& id, std::size_t attempt) {
  after(request_timeout_, [this, id, attempt] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;           // committed meanwhile
    if (it->second.attempts != attempt) return;  // stale timer from an older attempt
    if (attempt >= max_retries_) {
      // Out of retry budget: give up, but keep the books balanced so
      // submitted == committed + abandoned + inflight still holds.
      const sm::Command command = it->second.command;
      pending_.erase(it);
      sent_at_.erase(id);
      abandoned_seqs_.insert(id.seq);
      ++abandoned_;
      obs_abandoned_.inc();
      if (span_store() != nullptr) {
        const auto root_it = root_spans_.find(id);
        if (root_it != root_spans_.end()) {
          span_store()->close(root_it->second, true_now());
          root_spans_.erase(root_it);
        }
      }
      obs_sink().record(obs::TraceEvent{.at = true_now(),
                                        .kind = obs::EventKind::kClientAbandon,
                                        .node = this->id(),
                                        .request = id,
                                        .value = static_cast<std::int64_t>(attempt)});
      return;
    }
    const std::size_t next_attempt = attempt + 1;
    it->second.attempts = next_attempt;
    obs_retries_.inc();
    obs_sink().record(obs::TraceEvent{.at = true_now(),
                                      .kind = obs::EventKind::kClientRetry,
                                      .node = this->id(),
                                      .request = id,
                                      .value = static_cast<std::int64_t>(next_attempt)});
    // Copy the command: on_request_timeout may re-enter and mutate pending_.
    const sm::Command command = it->second.command;
    // Re-activate the command's root span so the retry's messages stay on
    // the original trace (the retry is causally part of the same command).
    const obs::SpanId root = root_span_of(id);
    if (root != 0) {
      set_active_span(obs::TraceContext{obs::trace_id_of(id), root});
    }
    on_request_timeout(command, next_attempt);
    if (root != 0) clear_active_span();
    arm_timeout(id, next_attempt);
  });
}

void ClientBase::on_request_timeout(const sm::Command& command, std::size_t /*attempt*/) {
  propose(command);
}

void ClientBase::on_committed(const RequestId& /*id*/, TimePoint /*sent_at*/,
                              TimePoint /*committed_at*/) {}

void ClientBase::handle_committed(const RequestId& id) {
  if (id.client != this->id()) return;
  const auto seq = static_cast<IntervalSet::Key>(id.seq);
  if (done_seqs_.contains(seq)) return;  // duplicate notification
  done_seqs_.insert(seq);
  obs_committed_.inc();
  pending_.erase(id);
  if (abandoned_seqs_.erase(id.seq) > 0) {
    // A retry we had given up on came through after all; un-count the
    // abandonment so the accounting invariant keeps holding. (The obs
    // counter stays monotonic: it counts abandon *events*, not the net.)
    --abandoned_;
  }
  if (span_store() != nullptr) {
    // Terminal event of the trace: close the root span at commit time and
    // record which span delivered the commit (the handler span of the
    // message being processed right now; 0 on an untraced path).
    const auto root_it = root_spans_.find(id);
    if (root_it != root_spans_.end()) {
      span_store()->close(root_it->second, true_now());
      span_store()->note_commit(obs::trace_id_of(id), id, true_now(),
                                active_span().span_id);
      root_spans_.erase(root_it);
    }
  }
  auto it = sent_at_.find(id);
  if (it == sent_at_.end()) return;
  const TimePoint sent = it->second;
  sent_at_.erase(it);
  obs_commit_latency_.record(true_now() - sent);
  on_committed(id, sent, true_now());
  if (commit_hook_) commit_hook_(id, sent, true_now());
}

}  // namespace domino::rpc

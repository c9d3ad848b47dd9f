#include "recovery/durable.h"

#include <stdexcept>
#include <utility>

#include "recovery/messages.h"
#include "rpc/node.h"
#include "statemachine/kvstore.h"

namespace domino::recovery {

const char* record_tag_name(RecordTag tag) {
  switch (tag) {
    case RecordTag::kReservation: return "Reservation";
    case RecordTag::kAccepted: return "Accepted";
    case RecordTag::kCommitted: return "Committed";
    case RecordTag::kWatermark: return "Watermark";
  }
  return "Unknown";
}

void DurableLog::append(RecordTag tag, wire::Payload body) {
  if (weakened_) return;  // the forgotten fsync: code path identical, data gone
  bytes_ += body.size() + 1;
  records_.push_back(DurableRecord{tag, std::move(body)});
}

void DurableStore::bind_obs(const obs::Sink& sink) {
  obs_ = sink;
  obs_persist_records_ = sink.counter("recovery.persist_records");
  obs_persist_bytes_ = sink.counter("recovery.persist_bytes");
  obs_restarts_ = sink.counter("recovery.restarts");
  obs_replay_records_ = sink.counter("recovery.replay_records");
  obs_replay_bytes_ = sink.counter("recovery.replay_bytes");
  obs_catchup_installs_ = sink.counter("recovery.catchup_installs");
  obs_catchup_bytes_ = sink.counter("recovery.catchup_bytes");
  obs_rejoin_ns_ = sink.histogram("recovery.time_to_rejoin_ns");
  obs_catchup_duration_ns_ = sink.histogram("recovery.catchup_duration_ns");
}

RecoveryStats DurableStore::aggregate() const {
  return RecoveryStats{.persisted_records = obs_persist_records_.value(),
                       .persisted_bytes = obs_persist_bytes_.value(),
                       .restarts = obs_restarts_.value(),
                       .replayed_records = obs_replay_records_.value(),
                       .replayed_bytes = obs_replay_bytes_.value(),
                       .catchup_installs = obs_catchup_installs_.value(),
                       .catchup_bytes = obs_catchup_bytes_.value(),
                       .rejoin_ns_total = rejoin_ns_total_};
}

void Persistor::persist(RecordTag tag, const BodyFn& body, std::function<void()> then) {
  if (store_ == nullptr) {
    then();
    return;
  }
  wire::Payload record = body();
  store_->obs_persist_records_.inc();
  store_->obs_persist_bytes_.inc(record.size() + 1);
  store_->log_of(node_->id()).append(tag, std::move(record));
  const Duration sync = store_->config().sync_latency;
  if (sync <= Duration::zero()) {
    then();
    return;
  }
  // The record is on disk only after the sync completes: defer the
  // externalizing continuation, and cancel it if the node restarts first.
  node_->after(sync, [this, epoch = epoch_, fn = std::move(then)] {
    if (epoch == epoch_) fn();
  });
}

void Persistor::begin_restart() {
  if (node_ == nullptr) throw std::logic_error("Persistor: restart before bind()");
  ++epoch_;
  catching_up_ = true;
  started_at_ = node_->true_now();
  store_->obs_restarts_.inc();
  node_->obs_sink().record(obs::TraceEvent{.at = started_at_,
                                           .kind = obs::EventKind::kRecoveryStart,
                                           .node = node_->id(),
                                           .value = static_cast<std::int64_t>(epoch_)});
}

void Persistor::replay(const std::function<void(const DurableRecord&)>& fn) {
  for (const DurableRecord& record : store_->log_of(node_->id()).records()) {
    store_->obs_replay_records_.inc();
    store_->obs_replay_bytes_.inc(record.body.size() + 1);
    fn(record);
  }
}

void Persistor::request_catchup(const std::vector<NodeId>& replicas,
                                const sm::KvStore& store) {
  if (!catching_up_) return;
  if (replicas.size() <= 1) {
    finish_rejoin();
    return;
  }
  const CatchupRequest req{epoch_, store.applied_count()};
  for (NodeId r : replicas) {
    if (r != node_->id()) node_->send(r, req);
  }
  node_->after(kCatchupRetryInterval, [this, &replicas, &store, epoch = epoch_] {
    if (epoch == epoch_) request_catchup(replicas, store);
  });
}

void Persistor::note_catchup_install(std::size_t bytes) {
  store_->obs_catchup_installs_.inc();
  store_->obs_catchup_bytes_.inc(bytes);
  store_->obs_catchup_duration_ns_.record(node_->true_now() - started_at_);
}

bool Persistor::finish_rejoin() {
  if (!catching_up_) return false;
  catching_up_ = false;
  const Duration took = node_->true_now() - started_at_;
  store_->rejoin_ns_total_ += took.nanos();
  store_->obs_rejoin_ns_.record(took);
  node_->obs_sink().record(obs::TraceEvent{.at = node_->true_now(),
                                           .kind = obs::EventKind::kRecoveryDone,
                                           .node = node_->id(),
                                           .value = took.nanos()});
  return true;
}

}  // namespace domino::recovery

#include "recovery/durable.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "recovery/messages.h"
#include "rpc/node.h"
#include "statemachine/kvstore.h"

namespace domino::recovery {

void DurableLog::append(RecordTag tag, std::span<const std::uint8_t> body) {
  if (weakened_) return;  // the forgotten fsync: code path identical, data gone
  std::array<std::uint8_t, 11> header{static_cast<std::uint8_t>(tag)};
  std::size_t header_len = 1;
  for (std::uint64_t n = body.size();; n >>= 7) {  // LEB128, as ByteWriter::varint
    header[header_len++] = static_cast<std::uint8_t>(n < 0x80 ? n : (n & 0x7F) | 0x80);
    if (n < 0x80) break;
  }
  const std::size_t need = header_len + body.size();
  if (blocks_.empty() || blocks_.back().capacity() - blocks_.back().size() < need) {
    blocks_.emplace_back().reserve(std::max(need, kBlockBytes));
  }
  wire::Payload& block = blocks_.back();
  block.insert(block.end(), header.begin(), header.begin() + header_len);
  block.insert(block.end(), body.begin(), body.end());
  ++count_;
  bytes_ += body.size() + 1;
}

std::size_t DurableLog::reserved_bytes() const {
  std::size_t total = 0;
  for (const wire::Payload& block : blocks_) total += block.capacity();
  return total;
}

DurableLogIterator::DurableLogIterator(const std::vector<wire::Payload>& blocks, std::size_t block)
    : blocks_(&blocks), block_(block) {
  load();
}

DurableLogIterator& DurableLogIterator::operator++() {
  offset_ = next_;
  if (offset_ == (*blocks_)[block_].size()) {
    ++block_;
    offset_ = 0;
  }
  load();
  return *this;
}

void DurableLogIterator::load() {
  if (block_ == blocks_->size()) return;
  const std::span<const std::uint8_t> block = (*blocks_)[block_];
  wire::ByteReader r(block.subspan(offset_));
  record_.tag = static_cast<RecordTag>(r.u8());
  const std::uint64_t len = r.varint();
  const std::size_t body_at = block.size() - r.remaining();
  record_.body = block.subspan(body_at, len);
  next_ = body_at + len;
}

void DurableStore::bind_obs(const obs::Sink& sink) {
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

void Persistor::bind(DurableStore& store, rpc::Node& node) {
  store_ = &store;
  node_ = &node;
  log_ = &store.log_of(node.id());
}

bool Persistor::append_scratch(RecordTag tag) {
  const wire::Payload& body = store_->scratch_.buffer();
  store_->obs_persist_records_.inc();
  store_->obs_persist_bytes_.inc(body.size() + 1);
  log_->append(tag, body);
  return store_->config().sync_latency > Duration::zero();
}

void Persistor::defer(std::function<void()> then) {
  // The record is on disk only after the sync completes: defer the
  // externalizing continuation, inside the span that asked for the write,
  // and cancel it if the node restarts first.
  node_->after_in_span(store_->config().sync_latency,
                       [this, epoch = epoch_, fn = std::move(then)] {
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

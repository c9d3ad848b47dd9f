// Simulated durable storage for crash recovery.
//
// The repository's fault model (net/fault.h) can make crashes *amnesiac*:
// on FaultEvent::kRecover the harness wipes a replica's volatile state
// through a restart hook, so whatever the replica externalized before the
// crash must be recoverable from somewhere. That somewhere is this module:
// a per-node append-only write-ahead log of tagged records, living in a
// DurableStore that the harness owns and that survives restarts.
//
// Each log is one byte arena: records sit back to back as [tag][varint body
// length][body] in fixed 64 KiB blocks (below glibc's mmap threshold). A
// record never straddles two blocks; one larger than a block gets a block of
// its own. While records are small the unused capacity is under one block
// per node: the open block's tail, plus the few bytes each earlier block
// ended with because the next record did not fit. Reading hands out
// DurableRecord views into the arena, valid until the next append.
//
// Records are typed: Persistor::persist takes a protocol's field-list
// struct (wire/codec.h), and Persistor::replay decodes each record back
// into the struct the protocol names for its tag.
//
// The store models the cost of durability with a configurable sync
// latency: a replica that must persist before sending (persist-before-
// externalize, the classic acceptor discipline) calls
// Persistor::persist(tag, record, then) — the record is appended
// immediately (state mutations are never deferred) but the continuation,
// which holds the externalizing sends, runs only after the simulated sync
// completes. Continuations are epoch-guarded: a crash+restart during the
// sync window cancels them, exactly like a real fsync that never returned.
//
// Persistor also owns the protocol-independent half of the restart path:
// the catch-up flag and its start time, the CatchupRequest broadcast and its
// epoch-guarded retry, the rejoin accounting, and the kRecoveryStart /
// kRecoveryDone incidents. recovery::Replica (recovery/replica.h) drives it;
// each protocol keeps only what differs: what it wipes, how it replays, what
// it re-proposes, and how it fills and merges a CatchupReply.
//
// For the negative consistency tests a node's log can be "weakened"
// (DurableStore::weaken): appends are silently dropped while the code path
// stays identical — the model of a forgotten fsync. The chaos checker must
// catch the resulting violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ranges>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/sink.h"
#include "wire/codec.h"

namespace domino::rpc {
class Node;
}  // namespace domino::rpc

namespace domino::sm {
class KvStore;
}  // namespace domino::sm

namespace domino::recovery {

/// Tag of a durable write-ahead record. The body is the wire encoding of a
/// struct the protocol that wrote it names per tag (see Persistor::replay).
enum class RecordTag : std::uint8_t {
  kAccepted = 2,   // accepted value at a position (plus protocol attributes)
  kCommitted = 3,  // commit decision at a position
};

/// One durable record: its tag and a view of its body bytes in the owning
/// DurableLog's arena, valid until the next append to that log.
struct DurableRecord {
  RecordTag tag = RecordTag::kAccepted;
  std::span<const std::uint8_t> body;
};

struct DurableConfig {
  /// Simulated latency of one durable sync (write + flush). Zero = writes
  /// are durable instantly (continuations run inline).
  Duration sync_latency = Duration::zero();
};

/// A store's recovery accounting, reported in RunResult and the run report.
struct RecoveryStats {
  std::uint64_t persisted_records = 0;
  std::uint64_t persisted_bytes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t replayed_bytes = 0;
  std::uint64_t catchup_installs = 0;
  std::uint64_t catchup_bytes = 0;
  std::int64_t rejoin_ns_total = 0;  // sum of time-to-rejoin over restarts
};

/// Forward iterator over a DurableLog's records, in append order.
class DurableLogIterator {
 public:
  using value_type = DurableRecord;
  using difference_type = std::ptrdiff_t;

  DurableLogIterator() = default;
  DurableRecord operator*() const { return record_; }
  DurableLogIterator& operator++();
  DurableLogIterator operator++(int) {
    DurableLogIterator before = *this;
    ++*this;
    return before;
  }
  bool operator==(const DurableLogIterator& other) const {
    return block_ == other.block_ && offset_ == other.offset_;
  }

 private:
  friend class DurableLog;
  DurableLogIterator(const std::vector<wire::Payload>& blocks, std::size_t block);
  void load();  // decode the record at (block_, offset_), if any

  const std::vector<wire::Payload>* blocks_ = nullptr;
  std::size_t block_ = 0;
  std::size_t offset_ = 0;
  std::size_t next_ = 0;  // offset of the following record in block_
  DurableRecord record_;
};

/// One node's append-only durable image, kept as a byte arena (see the
/// header comment). Survives the node's restarts (it is owned by the
/// DurableStore, not the replica).
class DurableLog {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{64} * 1024;

  void append(RecordTag tag, std::span<const std::uint8_t> body);

  [[nodiscard]] std::ranges::subrange<DurableLogIterator> records() const {
    return {DurableLogIterator(blocks_, 0), DurableLogIterator(blocks_, blocks_.size())};
  }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// Body bytes plus one tag byte per record: the accounted durable size.
  [[nodiscard]] std::uint64_t byte_size() const { return bytes_; }
  /// Bytes the arena's blocks hold, used or not.
  [[nodiscard]] std::size_t reserved_bytes() const;

  /// Negative-test knob: drop appends silently (a forgotten fsync).
  void set_weakened(bool weakened) { weakened_ = weakened; }

 private:
  // Each block is reserved once and never grows past its capacity, so its
  // bytes never move.
  std::vector<wire::Payload> blocks_;
  std::size_t count_ = 0;
  std::uint64_t bytes_ = 0;
  bool weakened_ = false;
};

/// The harness-owned collection of per-node durable logs.
class DurableStore {
 public:
  explicit DurableStore(DurableConfig config = {}) : config_(config) {}

  [[nodiscard]] const DurableConfig& config() const { return config_; }

  /// The durable log of `node`, created on first use.
  [[nodiscard]] DurableLog& log_of(NodeId node) { return logs_[node]; }

  /// Weaken one node's durability (see DurableLog::set_weakened).
  void weaken(NodeId node) { log_of(node).set_weakened(true); }

  /// Attach an observability sink for the recovery.* metrics. Optional;
  /// an unbound store still counts for aggregate(). Bind before first use.
  void bind_obs(const obs::Sink& sink);

  /// The recovery accounting of every node on this store, summed.
  [[nodiscard]] RecoveryStats aggregate() const;

  // Metric handles shared by every Persistor bound to this store; the
  // counters are also the store's own counts.
  obs::CounterHandle obs_persist_records_;
  obs::CounterHandle obs_persist_bytes_;
  obs::CounterHandle obs_restarts_;
  obs::CounterHandle obs_replay_records_;
  obs::CounterHandle obs_replay_bytes_;
  obs::CounterHandle obs_catchup_installs_;
  obs::CounterHandle obs_catchup_bytes_;
  obs::HistogramHandle obs_rejoin_ns_;
  obs::HistogramHandle obs_catchup_duration_ns_;
  /// Sum of every time-to-rejoin, which obs_rejoin_ns_ keeps as a histogram.
  std::int64_t rejoin_ns_total_ = 0;
  /// The record a Persistor is appending: each persist encodes and appends
  /// in one call, so every Persistor bound to this store reuses this buffer.
  wire::ByteWriter scratch_;

 private:
  DurableConfig config_;
  std::unordered_map<NodeId, DurableLog> logs_;
};

/// Per-replica facade over the durable store: persist-then-continue with
/// the configured sync latency, plus the protocol-independent half of the
/// amnesiac-restart lifecycle. A restart runs
///
///   begin_restart()     cancel in-flight syncs, enter catch-up, record
///                       the kRecoveryStart incident;
///   (Replica::recover)  wipe volatile state, replay(), re-propose;
///   request_catchup()   broadcast a CatchupRequest to every peer, and
///                       re-send it every kCatchupRetryInterval until the
///                       replica rejoins or restarts again;
///   (Replica)           merge the first CatchupReply of the current epoch,
///                       calling note_catchup_install() if it installs a
///                       snapshot;
///   finish_rejoin()     leave catch-up, record the kRecoveryDone incident.
///
/// Default-constructed (unbound) the facade is disabled: persist() runs the
/// continuation inline without encoding the record, so protocols can call
/// it unconditionally and fault-free runs stay byte-identical to before.
/// The restart lifecycle requires bind().
class Persistor {
 public:
  /// Catch-up request retransmit interval for a recovering replica.
  static constexpr Duration kCatchupRetryInterval = milliseconds(100);

  Persistor() = default;

  /// Bind to `store` for `node`, whose timers model the sync latency and
  /// which sends the catch-up requests and records the incidents.
  void bind(DurableStore& store, rpc::Node& node);

  /// Append the wire encoding of `record` under `tag`, then run `then`
  /// once the simulated sync completes. Unbound, or with a zero sync, `then`
  /// runs inline (unbound, `record` is not even encoded). The continuation
  /// is cancelled if the node restarts during the sync window (the send was
  /// never externalized).
  template <wire::FieldList Record, typename Then = void (*)()>
  void persist(RecordTag tag, const Record& record, Then then = [] {}) {
    if (store_ != nullptr) {
      store_->scratch_.clear();
      wire::write(store_->scratch_, record);
      if (append_scratch(tag)) {
        defer(std::move(then));
        return;
      }
    }
    then();
  }

  /// Restart epoch: bumped by begin_restart(); stale sync continuations,
  /// catch-up retries and catch-up replies compare against it.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Between begin_restart() and finish_rejoin(): the replica serves no
  /// clients and joins no quorums.
  [[nodiscard]] bool catching_up() const { return catching_up_; }

  /// Begin an amnesiac restart: cancel in-flight sync continuations, count
  /// the restart and enter catch-up. Call before wiping volatile state.
  /// Throws std::logic_error when unbound.
  void begin_restart();

  /// Replay the durable image in append order: each kAccepted record is
  /// decoded as an `Accepted` and handed to `on_accepted`, each kCommitted
  /// one as a `Committed` to `on_committed`.
  template <wire::FieldList Accepted, wire::FieldList Committed, typename OnAccepted,
            typename OnCommitted>
  void replay(OnAccepted&& on_accepted, OnCommitted&& on_committed) {
    for (const DurableRecord record : log_->records()) {
      store_->obs_replay_records_.inc();
      store_->obs_replay_bytes_.inc(record.body.size() + 1);
      if (record.tag == RecordTag::kAccepted) {
        on_accepted(wire::from_bytes<Accepted>(record.body));
      } else {
        on_committed(wire::from_bytes<Committed>(record.body));
      }
    }
  }

  /// Ask every peer in `replicas` for catch-up, reporting what `store` has
  /// applied, and retry until the replica rejoins. A lone replica rejoins
  /// at once. Both references must outlive the replica's restarts.
  void request_catchup(const std::vector<NodeId>& replicas, const sm::KvStore& store);

  /// Catch-up accounting: a peer snapshot of `bytes` bytes was installed.
  void note_catchup_install(std::size_t bytes);

  /// The replica rejoined (first catch-up reply of the current epoch
  /// merged). False, and nothing recorded, when it was not catching up.
  bool finish_rejoin();

 private:
  /// Count and append the store's scratch_ under `tag`; true when the sync
  /// takes time.
  bool append_scratch(RecordTag tag);
  /// Run `then` after the sync latency, unless the node restarts first.
  void defer(std::function<void()> then);

  DurableStore* store_ = nullptr;
  rpc::Node* node_ = nullptr;
  DurableLog* log_ = nullptr;  // node_'s log in store_ (map nodes never move)
  std::uint64_t epoch_ = 0;
  bool catching_up_ = false;
  TimePoint started_at_ = TimePoint::epoch();
};

}  // namespace domino::recovery

// recovery::Persistor on its own: typed records in and out, the
// persist-then-continue sync model and the restart lifecycle
// (begin_restart, replay, request_catchup, finish_rejoin), driven by bare
// rpc::Nodes on a one-DC network; and the DurableLog byte arena's block
// layout, length encoding and accounting.
#include "recovery/durable.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "recovery/messages.h"
#include "rpc/node.h"
#include "sim/simulator.h"
#include "statemachine/kvstore.h"

namespace domino::recovery {
namespace {

net::Topology one_dc() { return net::Topology{{"A"}, {{0.0}}}; }

/// A record that is one length-prefixed byte string: its encoding is one
/// length byte (for under 128 bytes) followed by the bytes.
struct Blob {
  wire::Payload bytes;

  bool operator==(const Blob&) const = default;
  static auto fields(auto& m) { return std::tie(m.bytes); }
};

Blob blob(std::initializer_list<std::uint8_t> b) { return Blob{wire::Payload(b)}; }

/// A second record type, as a protocol's kCommitted struct differs from its
/// kAccepted one.
struct Decision {
  std::uint64_t index = 0;
  bool is_noop = false;

  bool operator==(const Decision&) const = default;
  static auto fields(auto& m) { return std::tie(m.index, m.is_noop); }
};

/// A node that owns a Persistor and logs the catch-up requests it receives.
class Host : public rpc::Node {
 public:
  using Node::Node;
  Persistor persistor;
  std::vector<std::uint64_t> request_epochs;

 protected:
  void on_packet(const net::Packet& packet) override {
    if (wire::peek_type(packet.payload) == wire::MessageType::kCatchupRequest) {
      request_epochs.push_back(wire::decode_message<CatchupRequest>(packet.payload).epoch);
    }
  }
};

struct PersistorTest : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  DurableStore durable{DurableConfig{milliseconds(2)}};
  Host a{NodeId{0}, 0, network};

  void SetUp() override {
    a.attach();
    a.persistor.bind(durable, a);
  }

  [[nodiscard]] DurableLog& log() { return durable.log_of(a.id()); }
};

TEST_F(PersistorTest, ContinuationRunsOneSyncLatencyLater) {
  TimePoint ran_at = TimePoint::max();
  a.persistor.persist(RecordTag::kAccepted, blob({1, 2}), [&] { ran_at = a.true_now(); });
  // Appended at once; externalized only after the sync.
  EXPECT_EQ(log().size(), 1u);
  EXPECT_EQ(ran_at, TimePoint::max());
  simulator.run();
  EXPECT_EQ(ran_at, TimePoint::epoch() + milliseconds(2));
  EXPECT_EQ(durable.aggregate().persisted_records, 1u);
  EXPECT_EQ(durable.aggregate().persisted_bytes, 4u);  // length + 2 bytes, tag byte
}

TEST_F(PersistorTest, RestartInsideSyncWindowCancelsContinuationButKeepsRecord) {
  bool ran = false;
  a.persistor.persist(RecordTag::kCommitted, blob({7}), [&] { ran = true; });
  simulator.schedule_at(TimePoint::epoch() + milliseconds(1),
                        [&] { a.persistor.begin_restart(); });
  simulator.run();
  EXPECT_FALSE(ran);
  ASSERT_EQ(log().size(), 1u);
  EXPECT_EQ(log().records().front().tag, RecordTag::kCommitted);
  EXPECT_EQ(durable.aggregate().restarts, 1u);
}

TEST_F(PersistorTest, WeakenedLogCountsButKeepsAndReplaysNothing) {
  durable.weaken(a.id());
  bool ran = false;
  a.persistor.persist(RecordTag::kAccepted, blob({1, 2, 3}), [&] { ran = true; });
  simulator.run();
  EXPECT_TRUE(ran);  // the code path is identical; only the data is gone
  EXPECT_EQ(durable.aggregate().persisted_records, 1u);
  EXPECT_EQ(durable.aggregate().persisted_bytes, 5u);
  EXPECT_TRUE(log().records().empty());
  EXPECT_EQ(log().byte_size(), 0u);
  a.persistor.replay<Blob, Blob>([](const Blob&) { ADD_FAILURE() << "kAccepted replayed"; },
                                 [](const Blob&) { ADD_FAILURE() << "kCommitted replayed"; });
  EXPECT_EQ(durable.aggregate().replayed_records, 0u);
}

TEST_F(PersistorTest, ReplayWalksRecordsInAppendOrder) {
  a.persistor.persist(RecordTag::kCommitted, blob({1}));
  a.persistor.persist(RecordTag::kAccepted, blob({2, 2}));
  a.persistor.persist(RecordTag::kCommitted, blob({3, 3, 3}));
  std::vector<std::pair<RecordTag, Blob>> replayed;
  a.persistor.replay<Blob, Blob>(
      [&](Blob b) { replayed.emplace_back(RecordTag::kAccepted, std::move(b)); },
      [&](Blob b) { replayed.emplace_back(RecordTag::kCommitted, std::move(b)); });
  EXPECT_EQ(replayed, (std::vector<std::pair<RecordTag, Blob>>{
                          {RecordTag::kCommitted, blob({1})},
                          {RecordTag::kAccepted, blob({2, 2})},
                          {RecordTag::kCommitted, blob({3, 3, 3})}}));
  EXPECT_EQ(durable.aggregate().replayed_records, 3u);
  // 6 bytes, 3 length bytes, 3 tag bytes.
  EXPECT_EQ(durable.aggregate().replayed_bytes, 12u);
}

TEST(PersistorTyped, PersistWritesTheRecordEncodingUnderItsTag) {
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  Host host{NodeId{0}, 0, network};
  DurableStore store;  // zero sync: continuations run inline
  host.persistor.bind(store, host);
  const IndexAcceptedRecord accepted{7, sm::Command{RequestId{NodeId{3}, 9}, "key", "value"},
                                     NodeId{3}};
  const Decision committed{7, false};
  int ran = 0;
  host.persistor.persist(RecordTag::kAccepted, accepted, [&] { ++ran; });
  host.persistor.persist(RecordTag::kCommitted, committed, [&] { ++ran; });
  EXPECT_EQ(ran, 2);
  const auto& log = store.log_of(host.id());
  ASSERT_EQ(log.size(), 2u);
  const DurableRecord first = *log.records().begin();
  const DurableRecord second = *std::next(log.records().begin());
  EXPECT_EQ(first.tag, RecordTag::kAccepted);
  EXPECT_EQ(wire::Payload(first.body.begin(), first.body.end()), wire::to_bytes(accepted));
  EXPECT_EQ(second.tag, RecordTag::kCommitted);
  EXPECT_EQ(wire::Payload(second.body.begin(), second.body.end()), wire::to_bytes(committed));
  EXPECT_EQ(store.aggregate().persisted_bytes,
            wire::to_bytes(accepted).size() + wire::to_bytes(committed).size() + 2);
}

TEST_F(PersistorTest, TypedReplayHandsBackEachTagsStructInAppendOrder) {
  std::vector<IndexAcceptedRecord> accepted;
  std::vector<Decision> committed;
  for (std::uint64_t i = 0; i < 3; ++i) {
    accepted.push_back(IndexAcceptedRecord{
        i, sm::Command{RequestId{NodeId{1}, i}, "k" + std::to_string(i), "v"},
        i == 1 ? std::optional(NodeId{1}) : std::nullopt});
    committed.push_back(Decision{i, i == 2});
    a.persistor.persist(RecordTag::kAccepted, accepted.back());
    a.persistor.persist(RecordTag::kCommitted, committed.back());
  }
  std::string order;
  std::vector<IndexAcceptedRecord> got_accepted;
  std::vector<Decision> got_committed;
  a.persistor.replay<IndexAcceptedRecord, Decision>(
      [&](IndexAcceptedRecord r) {
        order += 'A';
        got_accepted.push_back(std::move(r));
      },
      [&](Decision d) {
        order += 'C';
        got_committed.push_back(d);
      });
  EXPECT_EQ(order, "ACACAC");
  EXPECT_EQ(got_committed, committed);
  ASSERT_EQ(got_accepted.size(), accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(got_accepted[i].index, accepted[i].index) << i;
    EXPECT_EQ(got_accepted[i].command, accepted[i].command) << i;
    EXPECT_EQ(got_accepted[i].client, accepted[i].client) << i;
  }
  EXPECT_EQ(durable.aggregate().replayed_records, 6u);
}

TEST_F(PersistorTest, TypedReplayDecodesOneStructUnderBothTags) {
  // EPaxos's shape: the same struct under kAccepted and kCommitted, the tag
  // alone saying which it is.
  const std::vector<std::pair<RecordTag, Decision>> written{
      {RecordTag::kAccepted, {1, false}},
      {RecordTag::kAccepted, {2, false}},
      {RecordTag::kCommitted, {1, false}},
      {RecordTag::kAccepted, {3, true}},
      {RecordTag::kCommitted, {3, true}}};
  for (const auto& [tag, d] : written) a.persistor.persist(tag, d);
  std::vector<std::pair<RecordTag, Decision>> replayed;
  a.persistor.replay<Decision, Decision>(
      [&](Decision d) { replayed.emplace_back(RecordTag::kAccepted, d); },
      [&](Decision d) { replayed.emplace_back(RecordTag::kCommitted, d); });
  EXPECT_EQ(replayed, written);
}

// --- DurableLog's byte arena ------------------------------------------------

constexpr std::size_t kBlock = DurableLog::kBlockBytes;

/// A body of `n` bytes whose content depends on `seed` and on the position.
wire::Payload filled(std::size_t n, std::uint8_t seed) {
  wire::Payload body(n);
  for (std::size_t i = 0; i < n; ++i) body[i] = static_cast<std::uint8_t>(seed + i * 7);
  return body;
}

/// Every record of `log` as (tag, body copy), in iteration order.
std::vector<std::pair<RecordTag, wire::Payload>> read_all(const DurableLog& log) {
  std::vector<std::pair<RecordTag, wire::Payload>> out;
  for (const DurableRecord& r : log.records()) {
    out.emplace_back(r.tag, wire::Payload(r.body.begin(), r.body.end()));
  }
  return out;
}

TEST(DurableLogArena, RecordExactlyFillingBlockTailStaysInBlock) {
  DurableLog log;
  const wire::Payload first = filled(10, 1);  // 1 tag + 1 length + 10 body = 12 bytes
  // 1 tag + 3 length bytes + body fills the remaining kBlock - 12 exactly.
  const wire::Payload tail = filled(kBlock - 12 - 4, 2);
  log.append(RecordTag::kAccepted, first);
  log.append(RecordTag::kCommitted, tail);
  EXPECT_EQ(log.reserved_bytes(), kBlock);  // one block, no byte spare
  log.append(RecordTag::kAccepted, filled(1, 3));
  EXPECT_EQ(log.reserved_bytes(), 2 * kBlock);  // the next record opened a block
  const auto all = read_all(log);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].second, first);
  EXPECT_EQ(all[1].first, RecordTag::kCommitted);
  EXPECT_EQ(all[1].second, tail);
  EXPECT_EQ(all[2].second, filled(1, 3));
}

TEST(DurableLogArena, RecordLargerThanBlockGetsItsOwnBlock) {
  DurableLog log;
  const wire::Payload big = filled(kBlock + kBlock / 2, 9);
  log.append(RecordTag::kAccepted, filled(5, 1));
  log.append(RecordTag::kCommitted, big);
  // A block of exactly 1 tag + 3 length bytes + body, after the first block.
  EXPECT_EQ(log.reserved_bytes(), kBlock + 4 + big.size());
  log.append(RecordTag::kAccepted, filled(5, 2));
  EXPECT_EQ(log.reserved_bytes(), 2 * kBlock + 4 + big.size());
  const auto all = read_all(log);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].second, filled(5, 1));
  EXPECT_EQ(all[1].first, RecordTag::kCommitted);
  EXPECT_EQ(all[1].second, big);
  EXPECT_EQ(all[2].second, filled(5, 2));
  EXPECT_EQ(log.byte_size(), 5 + big.size() + 5 + 3);
}

TEST(DurableLogArena, EmptyAndMultiByteLengthBodiesRoundTrip) {
  DurableLog log;
  // Lengths at each varint width boundary: 0 and 127 (one byte), 128 and
  // 16383 (two bytes), 16384 (three bytes).
  const std::vector<std::size_t> sizes{0, 127, 128, 300, 0, 16383, 16384};
  std::uint64_t body_bytes = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    log.append(RecordTag::kAccepted, filled(sizes[i], static_cast<std::uint8_t>(i)));
    body_bytes += sizes[i];
  }
  const auto all = read_all(log);
  ASSERT_EQ(all.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(all[i].first, RecordTag::kAccepted) << i;
    EXPECT_EQ(all[i].second, filled(sizes[i], static_cast<std::uint8_t>(i))) << i;
  }
  EXPECT_EQ(log.size(), sizes.size());
  EXPECT_EQ(log.byte_size(), body_bytes + sizes.size());
}

TEST(DurableLogArena, WeakenedLogStaysEmpty) {
  DurableLog log;
  log.set_weakened(true);
  log.append(RecordTag::kAccepted, filled(0, 0));
  log.append(RecordTag::kCommitted, filled(200, 1));
  log.append(RecordTag::kCommitted, filled(2 * kBlock, 2));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.byte_size(), 0u);
  EXPECT_EQ(log.reserved_bytes(), 0u);
  EXPECT_TRUE(log.records().empty());
}

TEST_F(PersistorTest, ReplayAcrossBlocksIsInOrderAndByteExact) {
  const std::array<RecordTag, 3> tags{RecordTag::kCommitted, RecordTag::kAccepted,
                                      RecordTag::kAccepted};
  std::vector<std::pair<RecordTag, Blob>> written;
  std::uint64_t bytes_written = 0;
  // About 3.5 blocks of records of 1..61 body bytes (a length byte, then
  // 0..60 bytes).
  for (std::size_t i = 0; bytes_written < 3 * kBlock + kBlock / 2; ++i) {
    written.emplace_back(tags[i % tags.size()],
                         Blob{filled(i % 61, static_cast<std::uint8_t>(i))});
    a.persistor.persist(written.back().first, written.back().second);
    bytes_written += written.back().second.bytes.size() + 2;
  }
  EXPECT_GE(log().reserved_bytes(), 4 * kBlock);
  std::vector<std::pair<RecordTag, Blob>> replayed;
  a.persistor.replay<Blob, Blob>(
      [&](Blob b) { replayed.emplace_back(RecordTag::kAccepted, std::move(b)); },
      [&](Blob b) { replayed.emplace_back(RecordTag::kCommitted, std::move(b)); });
  EXPECT_EQ(replayed, written);
  EXPECT_EQ(log().size(), written.size());
  EXPECT_EQ(log().byte_size(), bytes_written);
  const RecoveryStats stats = durable.aggregate();
  EXPECT_EQ(stats.persisted_records, written.size());
  EXPECT_EQ(stats.persisted_bytes, bytes_written);
  EXPECT_EQ(stats.replayed_records, written.size());
  EXPECT_EQ(stats.replayed_bytes, bytes_written);
}

/// A record that counts how often the codec reads its field list.
struct CountingRecord {
  std::uint64_t value = 0;
  static inline int encodes = 0;

  static auto fields(auto& m) {
    ++encodes;
    return std::tie(m.value);
  }
};

TEST(Persistor, UnboundRunsContinuationInlineWithoutEncoding) {
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  Host host{NodeId{0}, 0, network};
  DurableStore store{DurableConfig{milliseconds(2)}};  // never bound to `p`
  Persistor p;
  int ran = 0;
  CountingRecord::encodes = 0;
  p.persist(RecordTag::kAccepted, CountingRecord{1}, [&] { ++ran; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(CountingRecord::encodes, 0);
  simulator.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(store.log_of(host.id()).size(), 0u);
  const RecoveryStats stats = store.aggregate();
  EXPECT_EQ(stats.persisted_records, 0u);
  EXPECT_EQ(stats.persisted_bytes, 0u);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_FALSE(p.catching_up());
  // The restart lifecycle needs a node and a store.
  EXPECT_THROW(p.begin_restart(), std::logic_error);
  EXPECT_EQ(p.epoch(), 0u);
}

TEST(Persistor, LoneReplicaRejoinsAtOnce) {
  obs::TraceRecorder trace;
  sim::Simulator simulator;
  net::Network network{simulator, one_dc(), 1};
  network.bind_obs(obs::Sink{nullptr, &trace, nullptr, nullptr});
  Host lone{NodeId{0}, 0, network};
  lone.attach();
  DurableStore store;
  lone.persistor.bind(store, lone);
  const std::vector<NodeId> replicas{lone.id()};
  const sm::KvStore kv;

  lone.persistor.begin_restart();
  EXPECT_TRUE(lone.persistor.catching_up());
  lone.persistor.request_catchup(replicas, kv);
  EXPECT_FALSE(lone.persistor.catching_up());
  EXPECT_FALSE(lone.persistor.finish_rejoin());  // already rejoined: no-op
  simulator.run();

  EXPECT_EQ(store.aggregate().restarts, 1u);
  EXPECT_EQ(store.aggregate().rejoin_ns_total, 0);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].kind, obs::EventKind::kRecoveryStart);
  EXPECT_EQ(trace.events()[0].value, 1);  // the new epoch
  EXPECT_EQ(trace.events()[1].kind, obs::EventKind::kRecoveryDone);
  EXPECT_EQ(trace.events()[1].value, 0);
}

TEST_F(PersistorTest, RetryArmedBeforeSecondRestartNeverFires) {
  Host b{NodeId{1}, 0, network};
  b.attach();
  const std::vector<NodeId> replicas{a.id(), b.id()};
  const sm::KvStore kv;
  const TimePoint t0 = TimePoint::epoch();

  a.persistor.begin_restart();
  a.persistor.request_catchup(replicas, kv);  // epoch 1: sends at 0, retry at 100 ms
  simulator.schedule_at(t0 + milliseconds(50), [&] {
    a.persistor.begin_restart();  // epoch 2: sends at 50, retry at 150 ms
    a.persistor.request_catchup(replicas, kv);
  });
  simulator.run_until(t0 + milliseconds(190));
  // The epoch-1 retry at 100 ms was dropped; only epoch 2 keeps retrying.
  EXPECT_EQ(b.request_epochs, (std::vector<std::uint64_t>{1, 2, 2}));
  EXPECT_TRUE(a.persistor.catching_up());

  // Rejoining stops the retries and records the time since the second
  // restart.
  EXPECT_TRUE(a.persistor.finish_rejoin());
  simulator.run_until(t0 + milliseconds(400));
  EXPECT_EQ(b.request_epochs.size(), 3u);
  EXPECT_EQ(durable.aggregate().restarts, 2u);
  EXPECT_EQ(durable.aggregate().rejoin_ns_total, milliseconds(140).nanos());
}

}  // namespace
}  // namespace domino::recovery

// Round-trip and allocation-bomb-guard tests for the peer catch-up wire
// messages (recovery/messages.h), in the style of tests/wire: every field
// survives an encode/decode cycle, and a length prefix that could not be
// backed by the remaining bytes throws WireError instead of allocating.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "recovery/messages.h"
#include "wire/message.h"

namespace domino::recovery {
namespace {

sm::Command test_command(std::uint64_t seq, std::string key, std::string value) {
  sm::Command c;
  c.id = RequestId{NodeId{1001}, seq};
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

template <typename M>
M round_trip(const M& msg) {
  const wire::Payload p = wire::encode_message(msg);
  EXPECT_EQ(wire::peek_type(p), M::kType);
  return wire::decode_message<M>(p);
}

TEST(RecoveryMessages, CatchupRequestRoundTrip) {
  CatchupRequest m;
  m.epoch = 3;
  m.applied = 120;
  const auto d = round_trip(m);
  EXPECT_EQ(d.epoch, 3u);
  EXPECT_EQ(d.applied, 120u);
}

TEST(RecoveryMessages, CatchupReplyRoundTrip) {
  CatchupReply m;
  m.epoch = 7;
  m.applied = 512;
  m.frontier = -4;  // timestamps may sit below the epoch under clock offsets
  m.frontier_lane = 3;
  m.snapshot = {KvEntry{"k1", "v1"}, KvEntry{"k2", ""}, KvEntry{"", "v3"}};
  m.watermarks = {0, 1729, -55};
  CatchupEntry e0{/*pos=*/41, /*lane=*/0, test_command(9, "a", "b"), {}};
  CatchupEntry e1{/*pos=*/-17, /*lane=*/2, test_command(10, "c", "d"),
                  wire::Payload{0x01, 0x02, 0x03}};
  m.entries = {e0, e1};

  const auto d = round_trip(m);
  EXPECT_EQ(d.epoch, 7u);
  EXPECT_EQ(d.applied, 512u);
  EXPECT_EQ(d.frontier, -4);
  EXPECT_EQ(d.frontier_lane, 3u);
  ASSERT_EQ(d.snapshot.size(), 3u);
  EXPECT_EQ(d.snapshot[0].key, "k1");
  EXPECT_EQ(d.snapshot[0].value, "v1");
  EXPECT_EQ(d.snapshot[1].value, "");
  EXPECT_EQ(d.snapshot[2].key, "");
  EXPECT_EQ(d.watermarks, (std::vector<std::int64_t>{0, 1729, -55}));
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].pos, 41);
  EXPECT_EQ(d.entries[0].lane, 0u);
  EXPECT_EQ(d.entries[0].command.id, e0.command.id);
  EXPECT_TRUE(d.entries[0].aux.empty());
  EXPECT_EQ(d.entries[1].pos, -17);
  EXPECT_EQ(d.entries[1].lane, 2u);
  EXPECT_EQ(d.entries[1].aux, (wire::Payload{0x01, 0x02, 0x03}));
}

TEST(RecoveryMessages, EmptyReplyRoundTrip) {
  // A responder with nothing to offer (fresh cluster) sends empty
  // containers; the decoder must not confuse that with truncation.
  CatchupReply m;
  const auto d = round_trip(m);
  EXPECT_TRUE(d.snapshot.empty());
  EXPECT_TRUE(d.watermarks.empty());
  EXPECT_TRUE(d.entries.empty());
}

/// Build a CatchupReply body whose first container claims `claimed` elements
/// while the payload carries none — the classic allocation bomb.
wire::Payload bomb_reply(std::uint64_t claimed) {
  wire::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(CatchupReply::kType));
  w.varint(0);        // epoch
  w.varint(0);        // applied
  w.svarint(0);       // frontier
  w.varint(0);        // frontier_lane
  w.varint(claimed);  // snapshot length prefix with no bytes behind it
  return w.take();
}

TEST(RecoveryMessages, SnapshotAllocationBombThrows) {
  EXPECT_THROW(wire::decode_message<CatchupReply>(bomb_reply(1u << 30)),
               wire::WireError);
  // Even a modest over-claim must be rejected: 10 claimed entries cannot
  // fit in zero remaining bytes.
  EXPECT_THROW(wire::decode_message<CatchupReply>(bomb_reply(10)), wire::WireError);
}

TEST(RecoveryMessages, EntriesAllocationBombThrows) {
  wire::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(CatchupReply::kType));
  w.varint(0);   // epoch
  w.varint(0);   // applied
  w.svarint(0);  // frontier
  w.varint(0);   // frontier_lane
  w.varint(0);   // snapshot: empty
  w.varint(0);   // watermarks: empty
  w.varint(1u << 28);  // entries: bomb
  EXPECT_THROW(wire::decode_message<CatchupReply>(w.take()), wire::WireError);
}

TEST(RecoveryMessages, TruncatedEntryThrows) {
  CatchupReply m;
  m.entries.push_back(CatchupEntry{5, 1, test_command(1, "k", "v"), {}});
  wire::Payload p = wire::encode_message(m);
  p.resize(p.size() - 3);  // cut into the trailing entry
  EXPECT_THROW(wire::decode_message<CatchupReply>(p), wire::WireError);
}

TEST(RecoveryMessages, TrailingGarbageThrows) {
  CatchupRequest m;
  wire::Payload p = wire::encode_message(m);
  p.push_back(0x00);
  EXPECT_THROW(static_cast<void>(wire::decode_message<CatchupRequest>(p)), wire::WireError);
}

}  // namespace
}  // namespace domino::recovery

#include "wire/codec.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"

namespace domino::wire {
namespace {

TEST(Codec, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 127, 128, 16383, 16384, std::numeric_limits<std::uint64_t>::max()}) {
    ByteWriter w;
    w.varint(v);
    const Payload p = w.take();
    ByteReader r{p};
    EXPECT_EQ(r.varint(), v);
  }
}

TEST(Codec, VarintCompactness) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, SvarintSignedValues) {
  for (std::int64_t v : std::vector<std::int64_t>{
           0, 1, -1, 63, -64, 1'000'000, -1'000'000,
           std::numeric_limits<std::int64_t>::max(),
           std::numeric_limits<std::int64_t>::min()}) {
    ByteWriter w;
    w.svarint(v);
    const Payload p = w.take();
    ByteReader r{p};
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Codec, ZigZagSmallNegativesAreCompact) {
  ByteWriter w;
  w.svarint(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Codec, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Codec, BytesRoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0xFF, 0x42};
  ByteWriter w;
  w.bytes(data);
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.bytes(), data);
}

TEST(Codec, DomainTypesRoundTrip) {
  ByteWriter w;
  w.node_id(NodeId{42});
  w.request_id(RequestId{NodeId{7}, 999});
  w.time_point(TimePoint::epoch() + milliseconds(123));
  w.duration(milliseconds(-55));
  w.boolean(true);
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_EQ(r.node_id(), NodeId{42});
  EXPECT_EQ(r.request_id(), (RequestId{NodeId{7}, 999}));
  EXPECT_EQ(r.time_point(), TimePoint::epoch() + milliseconds(123));
  EXPECT_EQ(r.duration(), milliseconds(-55));
  EXPECT_TRUE(r.boolean());
}

TEST(Codec, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(12345);
  Payload p = w.take();
  p.pop_back();
  ByteReader r{p};
  EXPECT_THROW(r.u32(), WireError);
}

TEST(Codec, TruncatedStringThrows) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  const Payload p = w.take();
  ByteReader r{p};
  EXPECT_THROW(r.str(), WireError);
}

TEST(Codec, UnterminatedVarintThrows) {
  const Payload p{0x80, 0x80};  // continuation bits with no terminator
  ByteReader r{p};
  EXPECT_THROW(r.varint(), WireError);
}

TEST(Codec, OverlongVarintThrows) {
  const Payload p(11, 0x80);
  ByteReader r{p};
  EXPECT_THROW(r.varint(), WireError);
}

TEST(Codec, ExpectExhaustedThrowsOnTrailing) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  const Payload p = w.take();
  ByteReader r{p};
  r.u8();
  EXPECT_THROW(r.expect_exhausted(), WireError);
  r.u8();
  EXPECT_NO_THROW(r.expect_exhausted());
}

TEST(CodecProperty, RandomSequencesRoundTrip) {
  Rng rng(77);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::int64_t> svals;
    std::vector<std::uint64_t> uvals;
    ByteWriter w;
    for (int i = 0; i < 40; ++i) {
      const auto u = rng.next_u64();
      const auto s = static_cast<std::int64_t>(rng.next_u64());
      uvals.push_back(u >> (rng.next_u64() % 64));
      svals.push_back(s);
      w.varint(uvals.back());
      w.svarint(svals.back());
    }
    const Payload p = w.take();
    ByteReader r{p};
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(r.varint(), uvals[static_cast<std::size_t>(i)]);
      EXPECT_EQ(r.svarint(), svals[static_cast<std::size_t>(i)]);
    }
    EXPECT_TRUE(r.exhausted());
  }
}

}  // namespace
}  // namespace domino::wire

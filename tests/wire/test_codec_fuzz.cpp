// Decode-side robustness: random and mutated payloads must either decode
// or throw WireError — never crash, hang, or read out of bounds (the
// sanitizer-visible contract of the defensive codec).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/messages.h"
#include "epaxos/messages.h"
#include "fastpaxos/messages.h"
#include "measure/messages.h"
#include "measure/proxy.h"
#include "mencius/messages.h"
#include "paxos/messages.h"
#include "wire/message.h"

namespace domino::wire {
namespace {

sm::Command test_cmd() {
  sm::Command c;
  c.id = RequestId{NodeId{9}, 77};
  c.key = "kkkkkkkk";
  c.value = "vvvvvvvv";
  return c;
}

/// Attempt to decode `payload` as every known message type; all failures
/// must be WireError.
void try_decode_all(const Payload& payload) {
  auto probe_one = [&](auto tag) {
    using M = decltype(tag);
    try {
      (void)decode_message<M>(payload);
    } catch (const WireError&) {
      // expected failure mode
    }
  };
  probe_one(measure::Probe{});
  probe_one(measure::ProbeReply{});
  probe_one(measure::ProxyReport{});
  probe_one(paxos::Accept{});
  probe_one(mencius::Accept{});
  probe_one(epaxos::PreAccept{});
  probe_one(epaxos::Commit{});
  probe_one(fastpaxos::AcceptNotice{});
  probe_one(core::DfpPropose{});
  probe_one(core::DfpAcceptNotice{});
  probe_one(core::Heartbeat{});
  probe_one(core::DmAccept{});
  probe_one(core::RangeResolve{});
}

TEST(CodecFuzz, RandomBytesNeverCrash) {
  Rng rng(101);
  for (int iter = 0; iter < 2000; ++iter) {
    Payload p(rng.next_u64() % 64);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
    try_decode_all(p);
  }
}

TEST(CodecFuzz, TruncatedRealMessagesThrowCleanly) {
  std::vector<Payload> seeds;
  seeds.push_back(encode_message(core::DfpPropose{123456, test_cmd()}));
  seeds.push_back(encode_message(epaxos::PreAccept{
      {NodeId{1}, 5}, test_cmd(), 7, {{NodeId{0}, 1}, {NodeId{2}, 9}}}));
  core::RangeResolve rr;
  rr.lane = 2;
  rr.from_ts = 5;
  rr.through_ts = 500;
  rr.entries.push_back({17, test_cmd()});
  seeds.push_back(encode_message(rr));

  for (const Payload& seed : seeds) {
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      Payload p(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(cut));
      try_decode_all(p);
    }
  }
}

TEST(CodecFuzz, BitFlippedMessagesNeverCrash) {
  Rng rng(202);
  const Payload seed = encode_message(epaxos::PreAccept{
      {NodeId{1}, 5}, test_cmd(), 7, {{NodeId{0}, 1}, {NodeId{2}, 9}}});
  for (int iter = 0; iter < 3000; ++iter) {
    Payload p = seed;
    const std::size_t flips = 1 + rng.next_u64() % 4;
    for (std::size_t f = 0; f < flips; ++f) {
      p[rng.next_u64() % p.size()] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    }
    try_decode_all(p);
  }
}

TEST(CodecFuzz, LengthBombsRejected) {
  // A huge claimed string/vector length with no bytes behind it must throw,
  // not allocate unboundedly or read out of bounds.
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(MessageType::kDfpPropose));
  w.svarint(1);
  w.node_id(NodeId{1});
  w.varint(2);
  w.varint(0xFFFFFFFFFFull);  // key length claims ~1 TiB
  const Payload p = w.buffer();
  EXPECT_THROW((void)decode_message<core::DfpPropose>(p), WireError);
}

}  // namespace
}  // namespace domino::wire

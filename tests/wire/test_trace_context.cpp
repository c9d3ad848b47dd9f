// Wire-level tests for the piggybacked trace context: envelope flag bit,
// masked peek, decode skip, and byte-compatibility when no context is set.
#include <gtest/gtest.h>

#include "measure/messages.h"
#include "wire/message.h"

namespace domino::wire {
namespace {

measure::Probe sample_probe() {
  measure::Probe p;
  p.seq = 42;
  p.sender_local_time = TimePoint::epoch() + milliseconds(3);
  return p;
}

TEST(TraceContextWire, RoundTrip) {
  const auto probe = sample_probe();
  const TraceContextWire ctx{0xDEADBEEF12345678ull, 7};
  const Payload payload = encode_message_traced(probe, ctx);

  // The envelope flag is masked out of peek_type, so dispatch switches
  // never see it.
  EXPECT_EQ(peek_type(payload), MessageType::kProbe);

  const TraceContextWire got = peek_trace_context(payload);
  EXPECT_TRUE(got.valid());
  EXPECT_EQ(got.trace_id, ctx.trace_id);
  EXPECT_EQ(got.span_id, ctx.span_id);

  // decode_message skips the context transparently.
  const auto decoded = decode_message<measure::Probe>(payload);
  EXPECT_EQ(decoded.seq, probe.seq);
  EXPECT_EQ(decoded.sender_local_time, probe.sender_local_time);
}

TEST(TraceContextWire, InvalidContextEncodesByteIdentical) {
  const auto probe = sample_probe();
  const Payload plain = encode_message(probe);
  const Payload traced = encode_message_traced(probe, TraceContextWire{});
  EXPECT_EQ(plain, traced);

  // Zero trace id or zero span id -> no context on the wire.
  EXPECT_EQ(plain, encode_message_traced(probe, TraceContextWire{0, 5}));
  EXPECT_EQ(plain, encode_message_traced(probe, TraceContextWire{5, 0}));
}

TEST(TraceContextWire, PeekOnUntracedPayloadIsInvalid) {
  const Payload plain = encode_message(sample_probe());
  const TraceContextWire got = peek_trace_context(plain);
  EXPECT_FALSE(got.valid());
}

TEST(TraceContextWire, ContextAddsBytesOnlyWhenPresent) {
  const auto probe = sample_probe();
  const Payload plain = encode_message(probe);
  const Payload traced = encode_message_traced(probe, TraceContextWire{1, 1});
  EXPECT_GT(traced.size(), plain.size());
}

TEST(TraceContextWire, WrongTypeStillThrows) {
  const Payload traced = encode_message_traced(sample_probe(), TraceContextWire{9, 9});
  EXPECT_THROW(static_cast<void>(decode_message<measure::ProbeReply>(traced)), WireError);
}

TEST(TraceContextWire, TruncatedContextThrows) {
  Payload traced = encode_message_traced(sample_probe(), TraceContextWire{1u << 30, 77});
  traced.resize(3);  // tag + one varint byte
  EXPECT_THROW(static_cast<void>(decode_message<measure::Probe>(traced)), WireError);
}

}  // namespace
}  // namespace domino::wire

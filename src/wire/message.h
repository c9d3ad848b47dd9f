// Message envelope: a type tag followed by the message body.
//
// All protocols in the repository share one MessageType space so a node can
// host several protocol roles (e.g. a Domino replica participates in DFP
// and DM simultaneously) behind a single dispatch point.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wire/codec.h"

namespace domino::wire {

enum class MessageType : std::uint16_t {
  // Measurement plane (src/measure)
  kProbe = 1,
  kProbeReply = 2,

  // Multi-Paxos (src/paxos)
  kPaxosClientRequest = 10,
  kPaxosAccept = 11,
  kPaxosAcceptReply = 12,
  kPaxosCommit = 13,
  kPaxosClientReply = 14,

  // Mencius (src/mencius)
  kMenciusClientRequest = 20,
  kMenciusAccept = 21,
  kMenciusAcceptReply = 22,
  kMenciusCommit = 23,
  kMenciusSkip = 24,
  kMenciusClientReply = 25,
  kMenciusCommitAck = 27,

  // EPaxos (src/epaxos)
  kEpaxosClientRequest = 30,
  kEpaxosPreAccept = 31,
  kEpaxosPreAcceptReply = 32,
  kEpaxosAccept = 33,
  kEpaxosAcceptReply = 34,
  kEpaxosCommit = 35,
  kEpaxosClientReply = 36,

  // Classic Fast Paxos (src/fastpaxos)
  kFastPaxosClientRequest = 40,
  kFastPaxosAcceptNotice = 41,
  kFastPaxosRecoveryAccept = 42,
  kFastPaxosRecoveryReply = 43,
  kFastPaxosCommit = 44,
  kFastPaxosClientReply = 45,

  // Domino (src/core)
  kDfpPropose = 50,
  kDfpAcceptNotice = 51,
  kDfpCommit = 52,
  kDfpClientReply = 53,
  kDfpRecoveryAccept = 54,
  kDfpRecoveryReply = 55,
  kDominoHeartbeat = 56,
  kDmPropose = 57,
  kDmAccept = 58,
  kDmAcceptReply = 59,
  kDmCommit = 60,
  kDmClientReply = 61,

  // Measurement proxy (paper Section 5.6's probe-traffic reduction)
  kProxyQuery = 65,
  kProxyReport = 66,

  // Domino failure handling (paper Section 5.8)
  kRangeRecover = 70,
  kRangeReply = 71,
  kRangeResolve = 72,

  // Crash recovery (src/recovery): peer catch-up after an amnesiac restart
  kCatchupRequest = 76,
  kCatchupReply = 77,
};

/// Stable human-readable name of a message type (metric names, trace
/// output). Unknown tags map to "Unknown".
[[nodiscard]] constexpr const char* message_type_name(MessageType t) {
  switch (t) {
    case MessageType::kProbe: return "Probe";
    case MessageType::kProbeReply: return "ProbeReply";
    case MessageType::kPaxosClientRequest: return "PaxosClientRequest";
    case MessageType::kPaxosAccept: return "PaxosAccept";
    case MessageType::kPaxosAcceptReply: return "PaxosAcceptReply";
    case MessageType::kPaxosCommit: return "PaxosCommit";
    case MessageType::kPaxosClientReply: return "PaxosClientReply";
    case MessageType::kMenciusClientRequest: return "MenciusClientRequest";
    case MessageType::kMenciusAccept: return "MenciusAccept";
    case MessageType::kMenciusAcceptReply: return "MenciusAcceptReply";
    case MessageType::kMenciusCommit: return "MenciusCommit";
    case MessageType::kMenciusSkip: return "MenciusSkip";
    case MessageType::kMenciusClientReply: return "MenciusClientReply";
    case MessageType::kMenciusCommitAck: return "MenciusCommitAck";
    case MessageType::kEpaxosClientRequest: return "EpaxosClientRequest";
    case MessageType::kEpaxosPreAccept: return "EpaxosPreAccept";
    case MessageType::kEpaxosPreAcceptReply: return "EpaxosPreAcceptReply";
    case MessageType::kEpaxosAccept: return "EpaxosAccept";
    case MessageType::kEpaxosAcceptReply: return "EpaxosAcceptReply";
    case MessageType::kEpaxosCommit: return "EpaxosCommit";
    case MessageType::kEpaxosClientReply: return "EpaxosClientReply";
    case MessageType::kFastPaxosClientRequest: return "FastPaxosClientRequest";
    case MessageType::kFastPaxosAcceptNotice: return "FastPaxosAcceptNotice";
    case MessageType::kFastPaxosRecoveryAccept: return "FastPaxosRecoveryAccept";
    case MessageType::kFastPaxosRecoveryReply: return "FastPaxosRecoveryReply";
    case MessageType::kFastPaxosCommit: return "FastPaxosCommit";
    case MessageType::kFastPaxosClientReply: return "FastPaxosClientReply";
    case MessageType::kDfpPropose: return "DfpPropose";
    case MessageType::kDfpAcceptNotice: return "DfpAcceptNotice";
    case MessageType::kDfpCommit: return "DfpCommit";
    case MessageType::kDfpClientReply: return "DfpClientReply";
    case MessageType::kDfpRecoveryAccept: return "DfpRecoveryAccept";
    case MessageType::kDfpRecoveryReply: return "DfpRecoveryReply";
    case MessageType::kDominoHeartbeat: return "DominoHeartbeat";
    case MessageType::kDmPropose: return "DmPropose";
    case MessageType::kDmAccept: return "DmAccept";
    case MessageType::kDmAcceptReply: return "DmAcceptReply";
    case MessageType::kDmCommit: return "DmCommit";
    case MessageType::kDmClientReply: return "DmClientReply";
    case MessageType::kProxyQuery: return "ProxyQuery";
    case MessageType::kProxyReport: return "ProxyReport";
    case MessageType::kRangeRecover: return "RangeRecover";
    case MessageType::kRangeReply: return "RangeReply";
    case MessageType::kRangeResolve: return "RangeResolve";
    case MessageType::kCatchupRequest: return "CatchupRequest";
    case MessageType::kCatchupReply: return "CatchupReply";
  }
  return "Unknown";
}

/// Upper bound (exclusive) on MessageType tag values; sized so per-type
/// handle tables can be fixed arrays.
inline constexpr std::size_t kMaxMessageTypeTag = 80;

/// Envelope flag bit: when set on the type tag, a trace context (two
/// varints: trace id, sending span id) sits between the tag and the body.
/// Real tags stay below kMaxMessageTypeTag, so the bit is unambiguous.
inline constexpr std::uint16_t kTraceContextFlag = 0x8000;

/// The causal trace context piggybacked on a message envelope (see
/// obs/span.h for the semantics). Zero fields = no context.
struct TraceContextWire {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] constexpr bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// Serialize a message struct (anything with `kType` and `fields`) into an
/// envelope payload.
template <typename M>
[[nodiscard]] Payload encode_message(const M& msg) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(M::kType));
  write(w, msg);
  return w.take();
}

/// Serialize a message with a piggybacked trace context. When `ctx` is not
/// valid this is byte-identical to encode_message (tracing must never
/// change the wire format of untraced runs).
template <typename M>
[[nodiscard]] Payload encode_message_traced(const M& msg, const TraceContextWire& ctx) {
  if (!ctx.valid()) return encode_message(msg);
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(M::kType) | kTraceContextFlag);
  w.varint(ctx.trace_id);
  w.varint(ctx.span_id);
  write(w, msg);
  return w.take();
}

/// Read the envelope type tag without consuming the body. The trace-context
/// flag is masked off, so dispatch code is oblivious to tracing.
[[nodiscard]] inline MessageType peek_type(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  return static_cast<MessageType>(r.u16() & ~kTraceContextFlag);
}

/// Read the piggybacked trace context, if any (invalid context otherwise).
[[nodiscard]] inline TraceContextWire peek_trace_context(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  if ((r.u16() & kTraceContextFlag) == 0) return {};
  TraceContextWire ctx;
  ctx.trace_id = r.varint();
  ctx.span_id = r.varint();
  return ctx;
}

/// Parse a full message of known type M; throws WireError on a tag mismatch
/// or malformed body. A piggybacked trace context is skipped transparently.
template <typename M>
[[nodiscard]] M decode_message(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  const std::uint16_t raw = r.u16();
  const auto tag = static_cast<MessageType>(raw & ~kTraceContextFlag);
  if (tag != M::kType) throw WireError("decode_message: type tag mismatch");
  if ((raw & kTraceContextFlag) != 0) {
    (void)r.varint();  // trace id
    (void)r.varint();  // span id
  }
  M msg = read<M>(r);
  r.expect_exhausted();
  return msg;
}

}  // namespace domino::wire

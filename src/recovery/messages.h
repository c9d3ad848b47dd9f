// Peer catch-up wire messages, shared by all five protocols.
//
// A replica that went through an amnesiac restart replays its durable image
// and then asks live peers for whatever it externally promised nothing
// about but still missed: the executed key-value state (as a snapshot), the
// committed-but-unexecuted log suffix, and the lane/owner watermarks that
// let its log frontier advance past positions the peers already resolved.
//
// The exchange is deliberately protocol-agnostic: positions are an
// (int64 pos, uint32 lane) pair — the baselines use (index, 0), Domino uses
// (timestamp, lane) — and protocol-specific attributes (EPaxos instance id
// + seq + deps + status) ride in an opaque `aux` byte string, the
// wire::to_bytes of a body each protocol declares itself.
//
// The durable record body Multi-Paxos and Mencius share lives here too.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::recovery {

struct CatchupRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kCatchupRequest;
  /// Requester's restart epoch; echoed in the reply so a reply from before
  /// a second crash is discarded.
  std::uint64_t epoch = 0;
  /// Requester's applied-command count after local replay (peers use it
  /// only for observability; the requester judges replies itself).
  std::uint64_t applied = 0;

  static auto fields(auto& m) { return std::tie(m.epoch, m.applied); }
};

/// One key-value pair of the executed-state snapshot.
struct KvEntry {
  std::string key;
  std::string value;

  static auto fields(auto& m) { return std::tie(m.key, m.value); }
};
static_assert(wire::min_size<KvEntry>() == 2);

/// One committed log entry of the catch-up suffix.
struct CatchupEntry {
  std::int64_t pos = 0;    // log index (baselines) or timestamp (Domino)
  std::uint32_t lane = 0;  // 0 for the baselines; GlobalLog lane for Domino
  sm::Command command;
  /// Protocol-specific attributes (EPaxos: instance id, seq, deps, status).
  wire::Payload aux;

  static auto fields(auto& m) { return std::tie(m.pos, m.lane, m.command, m.aux); }
};
static_assert(wire::min_size<CatchupEntry>() == 10);

struct CatchupReply {
  static constexpr wire::MessageType kType = wire::MessageType::kCatchupReply;
  std::uint64_t epoch = 0;    // echoed from the request
  std::uint64_t applied = 0;  // responder's applied-command count
  /// Responder's execution frontier: first unexecuted log index (baselines)
  /// or the global frontier's timestamp (Domino).
  std::int64_t frontier = 0;
  std::uint32_t frontier_lane = 0;  // Domino: the global frontier's lane
  /// Executed key-value state at the responder.
  std::vector<KvEntry> snapshot;
  /// Per-lane (Domino) or per-owner-rank (Mencius) resolved frontiers /
  /// committed-no-op watermarks; empty when the protocol has none.
  std::vector<std::int64_t> watermarks;
  /// Committed suffix: entries the responder has committed but that the
  /// snapshot (executed state) does not cover. EPaxos sends its full
  /// committed instance set here (its snapshot covers no attributes).
  std::vector<CatchupEntry> entries;

  static auto fields(auto& m) {
    return std::tie(m.epoch, m.applied, m.frontier, m.frontier_lane, m.snapshot, m.watermarks,
                    m.entries);
  }
};
static_assert(wire::min_size<std::int64_t>() == 1);

/// Durable kAccepted record body of the two index-log protocols
/// (Multi-Paxos, Mencius); their kCommitted body is their Commit message.
/// `client` is set on the proposer's own record: it owes that client the
/// reply.
struct IndexAcceptedRecord {
  std::uint64_t index = 0;
  sm::Command command;
  std::optional<NodeId> client;

  static auto fields(auto& m) { return std::tie(m.index, m.command, m.client); }
};

}  // namespace domino::recovery

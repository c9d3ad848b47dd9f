// Domino wire messages (paper Section 5).
//
// DFP (Domino's Fast Paxos): clients broadcast timestamped proposals; every
// replica accepts or rejects against its clock; acceptances flow to the
// client (fast-path learner) and the DFP coordinator (recovery + no-op
// learner). The coordinator resolves collisions with ballot-1 recovery and
// disseminates a committed frontier for the no-op positions.
//
// DM (Domino's Mencius): clients send to a chosen leader; the leader stamps
// the request with `now + predicted replication latency` and replicates to
// a majority.
//
// Heartbeats carry each replica's clock watermark (no-op acceptance,
// Section 5.3.2) and — from the coordinator — the DFP committed frontier.
#pragma once

#include "log/position.h"
#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::core {

struct DfpPropose {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpPropose;
  std::int64_t ts = 0;  // target DFP log position = predicted supermajority arrival time
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.ts, m.command); }
};

struct DfpAcceptNotice {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpAcceptNotice;
  std::int64_t ts = 0;
  bool accepted = false;
  sm::Command command;
  TimePoint sender_local_time;  // piggybacked watermark (Section 5.3.2)

  static auto fields(auto& m) {
    return std::tie(m.ts, m.accepted, m.command, m.sender_local_time);
  }
};

struct DfpCommit {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpCommit;
  std::int64_t ts = 0;
  bool is_noop = false;  // true: the position resolved as no-op
  sm::Command command;   // meaningful when !is_noop

  static auto fields(auto& m) { return std::tie(m.ts, m.is_noop, m.command); }
};

struct DfpRecoveryAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRecoveryAccept;
  std::int64_t ts = 0;
  bool is_noop = false;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.ts, m.is_noop, m.command); }
};

struct DfpRecoveryReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpRecoveryReply;
  std::int64_t ts = 0;

  static auto fields(auto& m) { return std::tie(m.ts); }
};

/// Coordinator -> client notification for slow-path outcomes.
struct DfpClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDfpClientReply;
  RequestId request;

  static auto fields(auto& m) { return std::tie(m.request); }
};

struct Heartbeat {
  static constexpr wire::MessageType kType = wire::MessageType::kDominoHeartbeat;
  TimePoint sender_local_time;        // the sender's clock watermark
  std::int64_t dfp_commit_frontier = 0;  // > 0 only from the coordinator

  static auto fields(auto& m) { return std::tie(m.sender_local_time, m.dfp_commit_frontier); }
};

struct DmPropose {
  static constexpr wire::MessageType kType = wire::MessageType::kDmPropose;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.command); }
};

struct DmAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kDmAccept;
  std::int64_t ts = 0;
  std::uint32_t lane = 0;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.ts, m.lane, m.command); }
};

struct DmAcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDmAcceptReply;
  std::int64_t ts = 0;
  std::uint32_t lane = 0;

  static auto fields(auto& m) { return std::tie(m.ts, m.lane); }
};

struct DmCommit {
  static constexpr wire::MessageType kType = wire::MessageType::kDmCommit;
  std::int64_t ts = 0;
  std::uint32_t lane = 0;

  static auto fields(auto& m) { return std::tie(m.ts, m.lane); }
};

struct DmClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kDmClientReply;
  RequestId request;

  static auto fields(auto& m) { return std::tie(m.request); }
};

// ---------------------------------------------------------------------------
// Failure handling (paper Section 5.8): one range-recovery round for every
// lane. A successor revokes a crashed replica's DM lane, and the DFP
// coordinator recovers the no-op range that the dead replica's frozen clock
// watermark would otherwise block forever. Either way the round learns every
// live replica's entries on the lane in [from_ts, to_ts], commits those and
// no-ops the rest.

struct RangeEntryWire {
  std::int64_t ts = 0;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.ts, m.command); }
};
static_assert(wire::min_size<RangeEntryWire>() == 8);

struct RangeRecover {
  static constexpr wire::MessageType kType = wire::MessageType::kRangeRecover;
  std::uint32_t lane = 0;
  std::int64_t from_ts = 0;
  std::int64_t to_ts = 0;

  static auto fields(auto& m) { return std::tie(m.lane, m.from_ts, m.to_ts); }
};

struct RangeReply {
  static constexpr wire::MessageType kType = wire::MessageType::kRangeReply;
  std::uint32_t lane = 0;
  std::int64_t from_ts = 0;
  std::int64_t to_ts = 0;
  std::vector<RangeEntryWire> entries;

  static auto fields(auto& m) { return std::tie(m.lane, m.from_ts, m.to_ts, m.entries); }
};

struct RangeResolve {
  static constexpr wire::MessageType kType = wire::MessageType::kRangeResolve;
  std::uint32_t lane = 0;
  std::int64_t from_ts = 0;
  std::int64_t through_ts = 0;
  std::vector<RangeEntryWire> entries;  // committed; unlisted range = no-ops

  static auto fields(auto& m) { return std::tie(m.lane, m.from_ts, m.through_ts, m.entries); }
};

}  // namespace domino::core

// Multi-Paxos wire messages.
//
// The evaluation configuration mirrors the paper: a fixed leader (no
// elections in the measured path — the paper's prototype "does not
// implement fault tolerance", Section 6), clients send to the leader, the
// leader replicates to followers and replies after a majority accept.
#pragma once

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::paxos {

struct ClientRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kPaxosClientRequest;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.command); }
};

struct Accept {
  static constexpr wire::MessageType kType = wire::MessageType::kPaxosAccept;
  std::uint64_t index = 0;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.index, m.command); }
};

struct AcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kPaxosAcceptReply;
  std::uint64_t index = 0;

  static auto fields(auto& m) { return std::tie(m.index); }
};

struct Commit {
  static constexpr wire::MessageType kType = wire::MessageType::kPaxosCommit;
  std::uint64_t index = 0;
  /// The committed command rides along so a follower that missed the Accept
  /// (crashed or partitioned at the time) can still materialize the entry
  /// instead of carrying a permanent hole in its log.
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.index, m.command); }
};

struct ClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kPaxosClientReply;
  RequestId request;

  static auto fields(auto& m) { return std::tie(m.request); }
};

}  // namespace domino::paxos

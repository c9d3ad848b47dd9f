// Classic Fast Paxos SMR messages (paper reference [21] and Section 6's
// "state machine replication protocol that uses standard Fast Paxos under
// the same implementation framework").
//
// Clients broadcast requests to every replica; each replica independently
// assigns the request to its next free log index (arrival order) and
// notifies the coordinator and the originating client. A supermajority of
// identical (index, request) acceptances commits on the fast path; anything
// else is resolved by the coordinator's recovery protocol.
#pragma once

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::fastpaxos {

struct ClientRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kFastPaxosClientRequest;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.command); }
};

struct AcceptNotice {
  static constexpr wire::MessageType kType = wire::MessageType::kFastPaxosAcceptNotice;
  std::uint64_t index = 0;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.index, m.command); }
};

struct RecoveryAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kFastPaxosRecoveryAccept;
  std::uint64_t index = 0;
  bool is_noop = false;
  sm::Command command;  // meaningful when !is_noop

  static auto fields(auto& m) { return std::tie(m.index, m.is_noop, m.command); }
};

struct RecoveryReply {
  static constexpr wire::MessageType kType = wire::MessageType::kFastPaxosRecoveryReply;
  std::uint64_t index = 0;

  static auto fields(auto& m) { return std::tie(m.index); }
};

struct Commit {
  static constexpr wire::MessageType kType = wire::MessageType::kFastPaxosCommit;
  std::uint64_t index = 0;
  bool is_noop = false;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.index, m.is_noop, m.command); }
};

struct ClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kFastPaxosClientReply;
  RequestId request;

  static auto fields(auto& m) { return std::tie(m.request); }
};

}  // namespace domino::fastpaxos

// EPaxos wire messages (paper reference [26]).
//
// Commands are identified by (command leader, instance number). Dependencies
// are the interfering instances a command must be ordered after; with the
// key-value write workload, two commands interfere iff they write the same
// key (the paper's workload uses exactly this definition).
#pragma once

#include <vector>

#include "statemachine/command.h"
#include "wire/message.h"

namespace domino::epaxos {

struct InstanceId {
  NodeId replica;
  std::uint64_t seq = 0;  // per-replica instance counter

  constexpr auto operator<=>(const InstanceId&) const = default;

  [[nodiscard]] std::string to_string() const {
    return replica.to_string() + "." + std::to_string(seq);
  }

  static auto fields(auto& m) { return std::tie(m.replica, m.seq); }
};
static_assert(wire::min_size<InstanceId>() == 5);

using DepList = std::vector<InstanceId>;

struct ClientRequest {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosClientRequest;
  sm::Command command;

  static auto fields(auto& m) { return std::tie(m.command); }
};

struct PreAccept {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosPreAccept;
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;  // ordering sequence number, not the instance seq
  DepList deps;

  static auto fields(auto& m) { return std::tie(m.instance, m.command, m.seq, m.deps); }
};

struct PreAcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosPreAcceptReply;
  InstanceId instance;
  std::uint64_t seq = 0;
  DepList deps;

  static auto fields(auto& m) { return std::tie(m.instance, m.seq, m.deps); }
};

struct Accept {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosAccept;
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;
  DepList deps;

  static auto fields(auto& m) { return std::tie(m.instance, m.command, m.seq, m.deps); }
};

struct AcceptReply {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosAcceptReply;
  InstanceId instance;

  static auto fields(auto& m) { return std::tie(m.instance); }
};

struct Commit {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosCommit;
  InstanceId instance;
  sm::Command command;
  std::uint64_t seq = 0;
  DepList deps;

  static auto fields(auto& m) { return std::tie(m.instance, m.command, m.seq, m.deps); }
};

struct ClientReply {
  static constexpr wire::MessageType kType = wire::MessageType::kEpaxosClientReply;
  RequestId request;

  static auto fields(auto& m) { return std::tie(m.request); }
};

}  // namespace domino::epaxos

template <>
struct std::hash<domino::epaxos::InstanceId> {
  std::size_t operator()(const domino::epaxos::InstanceId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.replica.value()) << 40) ^ id.seq);
  }
};

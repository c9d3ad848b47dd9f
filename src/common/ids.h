// Strong identifier types.
//
// NodeId identifies any process in a deployment (replica or client).
// Replicas and clients share one id space so the network layer can route
// between any pair of processes.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace domino {

/// Identifies a process (replica or client) in a deployment.
class NodeId {
 public:
  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return v_; }
  constexpr auto operator<=>(const NodeId&) const = default;

  [[nodiscard]] static constexpr NodeId invalid() { return NodeId{0xFFFFFFFFu}; }
  [[nodiscard]] constexpr bool valid() const { return v_ != 0xFFFFFFFFu; }

  [[nodiscard]] std::string to_string() const { return "n" + std::to_string(v_); }

 private:
  std::uint32_t v_ = 0xFFFFFFFFu;
};

/// Identifies one client request: the proposing node plus a per-node
/// monotonically increasing sequence number.
struct RequestId {
  NodeId client;
  std::uint64_t seq = 0;

  constexpr auto operator<=>(const RequestId&) const = default;

  [[nodiscard]] std::string to_string() const {
    return client.to_string() + "#" + std::to_string(seq);
  }
};

}  // namespace domino

template <>
struct std::hash<domino::NodeId> {
  std::size_t operator()(const domino::NodeId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

template <>
struct std::hash<domino::RequestId> {
  std::size_t operator()(const domino::RequestId& id) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(id.client.value()) << 40) ^ id.seq);
  }
};

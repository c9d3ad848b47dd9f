// Shared cluster fixtures for protocol tests: small deployments on
// constant-latency topologies where timing is exactly predictable.
#pragma once

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "statemachine/command.h"
#include "statemachine/kvstore.h"

namespace domino::test {

/// Star-ish 4-DC topology with exact RTTs (ms):
///   A-B 20, A-C 40, A-D 60, B-C 30, B-D 50, C-D 10.
inline net::Topology four_dc() {
  return net::Topology{{"A", "B", "C", "D"},
                       {{0, 20, 40, 60}, {20, 0, 30, 50}, {40, 30, 0, 10},
                        {60, 50, 10, 0}}};
}

inline sm::Command make_command(NodeId client, std::uint64_t seq, std::string key = "k",
                                std::string value = "v") {
  sm::Command c;
  c.id = RequestId{client, seq};
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

/// Builds replica node-id vectors 0..n-1.
inline std::vector<NodeId> replica_ids(std::size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(NodeId{static_cast<std::uint32_t>(i)});
  return ids;
}

/// Collects executed request ids in order, for convergence checks.
struct ExecTrace {
  std::vector<RequestId> order;
  void operator()(const RequestId& id, TimePoint) { order.push_back(id); }
};

/// Lost-commit consistency check: every command whose commit a client
/// observed must have left a trace in at least one of the given stores (its
/// key present — callers use per-command keys for exact attribution).
/// Returns the ids of acknowledged commands that vanished from every store;
/// non-empty means an acknowledged commit was lost, the violation that
/// amnesiac crashes combined with weakened durability produce.
inline std::vector<RequestId> lost_commits(const std::vector<sm::Command>& acknowledged,
                                           const std::vector<const sm::KvStore*>& stores) {
  std::vector<RequestId> lost;
  for (const sm::Command& c : acknowledged) {
    bool found = false;
    for (const sm::KvStore* s : stores) {
      if (s->get(c.key).has_value()) {
        found = true;
        break;
      }
    }
    if (!found) lost.push_back(c.id);
  }
  return lost;
}

}  // namespace domino::test

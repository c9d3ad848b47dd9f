// Domino's global log positions.
//
// The log is indexed by (timestamp, lane):
//   - lanes 0 .. R-1 are the DM lanes, one per replica (the Mencius-style
//     pre-sharding of Section 5.5),
//   - lane R (kDfpLaneSentinel resolved per deployment) is the DFP lane:
//     one Fast Paxos instance per nanosecond timestamp (Section 5.3).
//
// Ordering is lexicographic on (timestamp, lane). Because DM positions are
// "pre-associated with the same timestamp as the DFP log position that is
// immediately after them" (Section 5.5), DM lanes compare *before* the DFP
// lane at the same timestamp — which the numbering gives us for free since
// the DFP lane index R is larger than every DM lane index.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <tuple>

namespace domino::log {

struct LogPosition {
  std::int64_t ts = 0;    // nanosecond timestamp (a node-local wall clock value)
  std::uint32_t lane = 0; // 0..R-1 = DM lane of replica i, R = DFP lane

  constexpr auto operator<=>(const LogPosition&) const = default;

  [[nodiscard]] std::string to_string() const {
    return "(" + std::to_string(ts) + ",lane" + std::to_string(lane) + ")";
  }

  static auto fields(auto& m) { return std::tie(m.ts, m.lane); }
};

/// The DFP lane index in a deployment with `replica_count` replicas.
[[nodiscard]] constexpr std::uint32_t dfp_lane(std::size_t replica_count) {
  return static_cast<std::uint32_t>(replica_count);
}

}  // namespace domino::log

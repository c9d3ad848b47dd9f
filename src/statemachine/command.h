// Client commands applied to the replicated state machine.
//
// The evaluation workload is the EPaxos key-value write workload the paper
// mirrors (Section 7.1): 8-byte keys, 8-byte values, write-only.
#pragma once

#include <compare>
#include <string>
#include <tuple>

#include "common/ids.h"
#include "wire/codec.h"

namespace domino::sm {

struct Command {
  RequestId id;
  std::string key;
  std::string value;

  auto operator<=>(const Command&) const = default;

  [[nodiscard]] bool conflicts_with(const Command& other) const { return key == other.key; }

  static auto fields(auto& m) { return std::tie(m.id, m.key, m.value); }
};

}  // namespace domino::sm

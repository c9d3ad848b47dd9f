// In-memory key-value store: the replicated state machine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/flat_map.h"
#include "statemachine/command.h"

namespace domino::sm {

class KvStore {
 public:
  /// Apply a write.
  void apply(const Command& cmd);

  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::uint64_t applied_count() const { return applied_; }

  /// Call f(std::string_view key, std::string_view value) for each entry,
  /// in an order fixed by the store's insertion history.
  template <typename F>
  void for_each(F&& f) const {
    data_.for_each(
        [&f](std::string_view key, const InlineString& value) { f(key, value.view()); });
  }

  /// A copy of the full contents, for consistency checks in tests and
  /// tools; no replica path calls it.
  [[nodiscard]] std::unordered_map<std::string, std::string> items() const;

  /// Order-independent content hash: equal iff two stores hold the same
  /// key/value pairs, regardless of insertion order or duplicate applies.
  /// The chaos harness compares replica fingerprints for convergence.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Replace the entire contents with a peer's executed-state snapshot
  /// (crash recovery catch-up): `entries` is a range of key/value pairs
  /// (anything a structured binding splits in two). `applied` is the peer's
  /// applied-command count at snapshot time, adopted so applied_count()
  /// stays comparable across replicas after an amnesiac restart.
  template <typename Entries>
  void install_snapshot(const Entries& entries, std::uint64_t applied) {
    data_.clear();
    data_.reserve(std::size(entries));
    for (const auto& [key, value] : entries) data_.try_emplace(key).first->assign(value);
    applied_ = applied;
  }

 private:
  FlatStringMap<InlineString> data_;
  std::uint64_t applied_ = 0;
};
// An 8 B key word, a 16 B value (8 B inline) and the slot's tag byte.
static_assert(FlatStringMap<InlineString>::kSlotBytes == 25);

}  // namespace domino::sm

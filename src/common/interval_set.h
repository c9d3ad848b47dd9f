// A set of disjoint, closed integer intervals with coalescing.
//
// The Domino prototype "compresses continuous no-op log entries into one
// entry" (paper Section 6). IntervalSet is that compression: a replica's
// no-op'd (or committed) log positions are stored as coalesced ranges, so a
// billion no-op positions per second cost O(#holes) memory, not O(#ticks).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/ids.h"

namespace domino {

class IntervalSet {
 public:
  using Key = std::int64_t;

  /// Insert the closed interval [lo, hi]; coalesces with neighbours and
  /// overlapping intervals. Requires lo <= hi.
  void insert(Key lo, Key hi);

  /// Insert a single point.
  void insert(Key point) { insert(point, point); }

  [[nodiscard]] bool contains(Key point) const;

  /// True when [lo, hi] is fully covered by the set.
  [[nodiscard]] bool covers(Key lo, Key hi) const;

  /// Smallest key >= from that is NOT in the set.
  [[nodiscard]] Key first_gap(Key from) const;

  /// Largest H such that every key in [from, H] is in the set, or nullopt
  /// if `from` itself is absent. (The "contiguous committed prefix".)
  [[nodiscard]] std::optional<Key> contiguous_end(Key from) const;

  [[nodiscard]] std::size_t interval_count() const { return ivals_.size(); }
  [[nodiscard]] bool empty() const { return ivals_.empty(); }

  /// Total number of integer points covered (may overflow for huge sets;
  /// intended for tests).
  [[nodiscard]] std::uint64_t cardinality() const;

  [[nodiscard]] std::string to_string() const;

  /// Iteration over the disjoint intervals, ascending: map lo -> hi.
  [[nodiscard]] const std::map<Key, Key>& intervals() const { return ivals_; }

 private:
  std::map<Key, Key> ivals_;  // lo -> hi, disjoint, non-adjacent
};

/// A set of request ids, kept as one IntervalSet of sequence numbers per
/// client. A client numbers its requests consecutively and most of them
/// finish in order, so a run's whole history costs a few intervals per
/// client instead of one hash node per request.
class RequestIdSet {
 public:
  /// Adds `id`; true when it was not already in the set.
  bool insert(const RequestId& id) {
    IntervalSet& seqs = seqs_[id.client];
    if (seqs.contains(seq(id))) return false;
    seqs.insert(seq(id));
    return true;
  }
  [[nodiscard]] bool contains(const RequestId& id) const {
    const auto it = seqs_.find(id.client);
    return it != seqs_.end() && it->second.contains(seq(id));
  }
  void clear() { seqs_.clear(); }

 private:
  static IntervalSet::Key seq(const RequestId& id) {
    return static_cast<IntervalSet::Key>(id.seq);
  }
  std::unordered_map<NodeId, IntervalSet> seqs_;
};

}  // namespace domino

#include "log/index_log.h"

#include <algorithm>
#include <stdexcept>

namespace domino::log {

void IndexLog::accept(std::uint64_t index, sm::Command command) {
  if (is_executed(index)) {
    throw std::logic_error("IndexLog::accept: position already executed");
  }
  auto it = entries_.find(index);
  if (it != entries_.end()) {
    if (it->second.status != EntryStatus::kAccepted) {
      throw std::logic_error("IndexLog::accept: position already committed");
    }
    it->second.command = std::move(command);
    return;
  }
  entries_.emplace(index, Entry{std::move(command), EntryStatus::kAccepted});
}

void IndexLog::commit(std::uint64_t index, std::optional<sm::Command> command) {
  if (is_executed(index)) return;  // idempotent
  auto it = entries_.find(index);
  if (it == entries_.end()) {
    if (!command) throw std::logic_error("IndexLog::commit: no entry and no command");
    entries_.emplace(index, Entry{std::move(*command), EntryStatus::kCommitted});
    return;
  }
  if (command) it->second.command = std::move(*command);
  it->second.status = EntryStatus::kCommitted;
}

void IndexLog::skip(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) return;
  skips_.insert(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
}

const IndexLog::Entry* IndexLog::entry(std::uint64_t index) const {
  auto it = entries_.find(index);
  return it == entries_.end() ? nullptr : &it->second;
}

bool IndexLog::is_committed(std::uint64_t index) const {
  if (is_executed(index)) return true;
  const Entry* e = entry(index);
  return e != nullptr && e->status == EntryStatus::kCommitted;
}

std::vector<std::pair<std::uint64_t, sm::Command>> IndexLog::committed_unexecuted() const {
  std::vector<std::pair<std::uint64_t, sm::Command>> out;
  for (const auto& [index, entry] : entries_) {
    if (entry.status == EntryStatus::kCommitted) out.emplace_back(index, entry.command);
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> IndexLog::skipped_after(
    std::uint64_t from) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  const auto f = static_cast<std::int64_t>(from);
  for (const auto& [lo, hi] : skips_.intervals()) {
    if (hi < f) continue;
    out.emplace_back(static_cast<std::uint64_t>(std::max(lo, f)),
                     static_cast<std::uint64_t>(hi));
  }
  return out;
}

void IndexLog::fast_forward(std::uint64_t frontier) {
  if (frontier <= exec_frontier_) return;
  entries_.erase(entries_.begin(), entries_.lower_bound(frontier));
  skips_.insert(static_cast<std::int64_t>(exec_frontier_),
                static_cast<std::int64_t>(frontier) - 1);
  exec_frontier_ = frontier;
}

std::vector<std::pair<std::uint64_t, sm::Command>> IndexLog::drain_executable() {
  std::vector<std::pair<std::uint64_t, sm::Command>> out;
  for (;;) {
    if (skips_.contains(static_cast<std::int64_t>(exec_frontier_))) {
      // Jump over the whole skipped run in one step. A skip is a committed
      // no-op decision, so it supersedes any accepted entry lingering in the
      // run (a lost ballot-0 vote in Fast Paxos); drop such entries so they
      // cannot block the frontier.
      const auto end = static_cast<std::uint64_t>(
          skips_.first_gap(static_cast<std::int64_t>(exec_frontier_)));
      entries_.erase(entries_.lower_bound(exec_frontier_), entries_.lower_bound(end));
      exec_frontier_ = end;
      continue;
    }
    auto it = entries_.find(exec_frontier_);
    if (it != entries_.end() && it->second.status == EntryStatus::kCommitted) {
      ++executed_;
      out.emplace_back(exec_frontier_, std::move(it->second.command));
      entries_.erase(it);
      ++exec_frontier_;
      continue;
    }
    break;  // accepted-uncommitted, or empty and unskipped: blocks execution
  }
  return out;
}

}  // namespace domino::log

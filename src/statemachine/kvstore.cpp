#include "statemachine/kvstore.h"

namespace domino::sm {

void KvStore::apply(const Command& cmd) {
  ++applied_;
  data_.try_emplace(cmd.key).first->assign(cmd.value);
}

std::optional<std::string> KvStore::get(std::string_view key) const {
  const InlineString* value = data_.find(key);
  if (value == nullptr) return std::nullopt;
  return std::string(value->view());
}

std::unordered_map<std::string, std::string> KvStore::items() const {
  std::unordered_map<std::string, std::string> out;
  out.reserve(size());
  for_each([&out](std::string_view key, std::string_view value) { out.emplace(key, value); });
  return out;
}

std::uint64_t KvStore::fingerprint() const {
  // FNV-1a per entry, combined with wrapping addition so the result does
  // not depend on the table's iteration order.
  std::uint64_t total = 0;
  for_each([&total](std::string_view key, std::string_view value) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::string_view s) {
      for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
      }
      h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
      h *= 0x100000001b3ull;
    };
    mix(key);
    mix(value);
    total += h;
  });
  return total;
}

}  // namespace domino::sm

// Flat string-keyed hash table with short keys stored inline.
//
// The paper's workload (Section 7.1) writes 8 B values to 8 B keys, and
// every replica keeps one entry per distinct key: the KV store's value and
// EPaxos's latest writer. A node-based std::unordered_map<std::string, ...>
// spends about 100 B of heap per such entry. FlatStringMap keeps each entry
// in one array slot instead: an InlineString key (16 B) followed by the
// value, found by linear probing from the key's hash in a power-of-two array
// that doubles past 7/8 full. Strings of up to 15 bytes live inside the
// slot; a longer one moves to the heap behind a pointer, so any key or value
// works, at one allocation per long string. Nothing is allocated until the
// first insert, and there is no erase (neither user needs one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace domino {

/// A 16-byte string: up to 15 bytes inline, longer ones on the heap. The
/// last byte is the tag: the inline length (0..15), kHeap (the first 8
/// bytes point at an owned std::string), or kVacant (an unused table slot;
/// only FlatStringMap makes one).
class InlineString {
 public:
  static constexpr std::size_t kInline = 15;
  struct Vacant {};

  InlineString() noexcept { bytes_[kTag] = 0; }
  explicit InlineString(std::string_view s) { init(s); }
  explicit InlineString(Vacant) noexcept { bytes_[kTag] = kVacant; }
  InlineString(const InlineString& other) {
    if (other.on_heap()) {
      init(other.view());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof bytes_);
    }
  }
  InlineString(InlineString&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof bytes_);
    if (other.on_heap()) other.bytes_[kTag] = 0;  // the heap string moved here
  }
  InlineString& operator=(InlineString other) noexcept {
    std::swap(bytes_, other.bytes_);  // `other` frees what this held
    return *this;
  }
  ~InlineString() {
    if (on_heap()) delete heap();
  }

  [[nodiscard]] bool vacant() const noexcept { return bytes_[kTag] == kVacant; }
  [[nodiscard]] bool on_heap() const noexcept { return bytes_[kTag] == kHeap; }

  /// The bytes; not valid on a vacant slot.
  [[nodiscard]] std::string_view view() const noexcept {
    if (on_heap()) return *heap();
    return {reinterpret_cast<const char*>(bytes_), bytes_[kTag]};
  }

  void assign(std::string_view s) {
    if (on_heap()) {
      if (s.size() > kInline) {
        heap()->assign(s);
        return;
      }
      delete heap();
    }
    init(s);
  }

  [[nodiscard]] bool operator==(std::string_view s) const noexcept {
    if (bytes_[kTag] <= kInline) {
      return bytes_[kTag] == s.size() && std::memcmp(bytes_, s.data(), s.size()) == 0;
    }
    return on_heap() && *heap() == s;
  }

 private:
  static constexpr std::size_t kTag = kInline;
  static constexpr unsigned char kHeap = 0x80;
  static constexpr unsigned char kVacant = 0xff;

  [[nodiscard]] std::string* heap() const noexcept {
    std::string* p;
    std::memcpy(&p, bytes_, sizeof p);
    return p;
  }

  void init(std::string_view s) {
    if (s.size() <= kInline) {
      if (!s.empty()) std::memcpy(bytes_, s.data(), s.size());
      bytes_[kTag] = static_cast<unsigned char>(s.size());
    } else {
      auto* p = new std::string(s);
      std::memcpy(bytes_, &p, sizeof p);
      bytes_[kTag] = kHeap;
    }
  }

  alignas(8) unsigned char bytes_[kInline + 1];
};
static_assert(sizeof(InlineString) == 16);

/// Open-addressing map from strings to V (default-constructible, movable).
template <typename V>
class FlatStringMap {
  struct Slot {
    InlineString key{InlineString::Vacant{}};
    V value{};
  };

 public:
  /// Bytes one entry occupies in the slot array.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

  FlatStringMap() = default;
  FlatStringMap(const FlatStringMap&) = default;
  FlatStringMap& operator=(const FlatStringMap&) = default;
  FlatStringMap(FlatStringMap&& other) noexcept
      : slots_(std::exchange(other.slots_, {})), size_(std::exchange(other.size_, 0)) {}
  FlatStringMap& operator=(FlatStringMap&& other) noexcept {
    slots_ = std::exchange(other.slots_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] V* find(std::string_view key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[probe(key)];
    return slot.key.vacant() ? nullptr : &slot.value;
  }
  [[nodiscard]] const V* find(std::string_view key) const {
    return const_cast<FlatStringMap*>(this)->find(key);
  }

  /// The value under `key`, inserted value-initialised if absent; the flag
  /// says whether it was inserted.
  std::pair<V*, bool> try_emplace(std::string_view key) {
    if (!fits(size_ + 1)) {
      // Grow only when the key is new, so overwrites at the load limit never
      // double the array.
      if (V* found = find(key)) return {found, false};
      grow(size_ + 1);
    }
    Slot& slot = slots_[probe(key)];
    if (!slot.key.vacant()) return {&slot.value, false};
    slot.key = InlineString{key};
    ++size_;
    return {&slot.value, true};
  }

  /// Make room for `n` entries without further growth.
  void reserve(std::size_t n) {
    if (!fits(n)) grow(n);
  }

  /// Drop every entry and the slot array.
  void clear() {
    slots_ = {};
    size_ = 0;
  }

  /// Call f(std::string_view key, const V& value) for each entry, in slot
  /// order (deterministic for a given insertion history).
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_) {
      if (!slot.key.vacant()) f(slot.key.view(), slot.value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Whether `n` entries stay within the 7/8 load limit of this array.
  [[nodiscard]] bool fits(std::size_t n) const { return n * 8 <= slots_.size() * 7; }

  /// The slot holding `key`, or the vacant slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(key) & mask;; i = (i + 1) & mask) {
      const InlineString& k = slots_[i].key;
      if (k.vacant() || k == key) return i;
    }
  }

  void grow(std::size_t n) {
    std::size_t capacity = slots_.empty() ? kMinCapacity : slots_.size();
    while (n * 8 > capacity * 7) capacity *= 2;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    for (Slot& slot : old) {
      if (!slot.key.vacant()) slots_[probe(slot.key.view())] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace domino

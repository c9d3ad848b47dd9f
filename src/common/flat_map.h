// Flat string-keyed hash table with short keys stored inline.
//
// The paper's workload (Section 7.1) writes 8 B values to 8 B keys, and
// every replica keeps one entry per distinct key: the KV store's value and
// EPaxos's latest writer. A node-based std::unordered_map<std::string, ...>
// spends about 100 B of heap per such entry. FlatStringMap keeps each entry
// in one array slot instead: an 8-byte key word followed by the value, plus
// one tag byte per slot in a parallel array, found by linear probing from
// the key's hash in a power-of-two array that doubles past 7/8 full. A key
// of up to 8 bytes lives zero-padded in the word, its length in the tag; a
// longer one moves to the heap behind a pointer held in the word, so any key
// works, at one allocation per long key. InlineString, the KV store's value
// type, does the same for values of up to 15 bytes. Nothing is allocated
// until the first insert, and there is no erase (neither user needs one).
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
/// last byte is the tag: the inline length (0..15), or kHeap (the first 8
/// bytes point at an owned std::string).
class InlineString {
 public:
  static constexpr std::size_t kInline = 15;

  InlineString() noexcept { bytes_[kTag] = 0; }
  explicit InlineString(std::string_view s) { init(s); }
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

  [[nodiscard]] bool on_heap() const noexcept { return bytes_[kTag] == kHeap; }

  /// The bytes.
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
    if (on_heap()) return *heap() == s;
    return bytes_[kTag] == s.size() && std::memcmp(bytes_, s.data(), s.size()) == 0;
  }

 private:
  static constexpr std::size_t kTag = kInline;
  static constexpr unsigned char kHeap = 0x80;

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
  /// A key of up to 8 bytes, zero-padded, or a pointer to an owned
  /// std::string; the slot's tag says which.
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };
  static_assert(sizeof(std::string*) <= sizeof(std::uint64_t));

 public:
  /// Bytes one entry occupies: its slot and its tag.
  static constexpr std::size_t kSlotBytes = sizeof(Slot) + 1;

  FlatStringMap() = default;
  FlatStringMap(const FlatStringMap& other)
      : slots_(other.slots_), tags_(other.tags_), size_(other.size_) {
    // The copied words still point at `other`'s heap keys.
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == kHeap) slots_[i].key = own(*heap_key(other.slots_[i].key));
    }
  }
  FlatStringMap(FlatStringMap&& other) noexcept
      : slots_(std::exchange(other.slots_, {})),
        tags_(std::exchange(other.tags_, {})),
        size_(std::exchange(other.size_, 0)) {}
  FlatStringMap& operator=(FlatStringMap other) noexcept {
    std::swap(slots_, other.slots_);  // `other` frees what this held
    std::swap(tags_, other.tags_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~FlatStringMap() { free_heap_keys(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] V* find(std::string_view key) {
    if (slots_.empty()) return nullptr;
    const std::size_t i = probe(key);
    return tags_[i] == kVacant ? nullptr : &slots_[i].value;
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
    const std::size_t i = probe(key);
    if (tags_[i] != kVacant) return {&slots_[i].value, false};
    const Packed k = pack(key);
    slots_[i].key = k.tag == kHeap ? own(key) : k.word;
    tags_[i] = k.tag;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Make room for `n` entries without further growth.
  void reserve(std::size_t n) {
    if (!fits(n)) grow(n);
  }

  /// Drop every entry and the slot array.
  void clear() {
    free_heap_keys();
    // Move-assign empty vectors: `= {}` would keep the arrays' capacity.
    slots_ = std::vector<Slot>{};
    tags_ = std::vector<unsigned char>{};
    size_ = 0;
  }

  /// Call f(std::string_view key, const V& value) for each entry, in slot
  /// order (deterministic for a given insertion history).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != kVacant) f(key_view(tags_[i], slots_[i].key), slots_[i].value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kWordBytes = sizeof(std::uint64_t);
  // Tags: 0..kWordBytes is an inline key's length.
  static constexpr unsigned char kHeap = 0x80;
  static constexpr unsigned char kVacant = 0xff;

  /// A key's tag and, for an inline key, its zero-padded word.
  struct Packed {
    unsigned char tag;
    std::uint64_t word;
  };
  [[nodiscard]] static Packed pack(std::string_view key) noexcept {
    Packed k{kHeap, 0};
    if (key.size() <= kWordBytes) {
      k.tag = static_cast<unsigned char>(key.size());
      if (!key.empty()) std::memcpy(&k.word, key.data(), key.size());
    }
    return k;
  }

  [[nodiscard]] static std::string* heap_key(std::uint64_t word) noexcept {
    return reinterpret_cast<std::string*>(static_cast<std::uintptr_t>(word));
  }
  [[nodiscard]] static std::uint64_t own(std::string_view key) {
    return reinterpret_cast<std::uintptr_t>(new std::string(key));
  }
  /// The key an occupied slot holds; `word` must be the slot's own.
  [[nodiscard]] static std::string_view key_view(unsigned char tag,
                                                 const std::uint64_t& word) noexcept {
    if (tag == kHeap) return *heap_key(word);
    return {reinterpret_cast<const char*>(&word), tag};
  }

  void free_heap_keys() noexcept {
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == kHeap) delete heap_key(slots_[i].key);
    }
  }

  /// Whether `n` entries stay within the 7/8 load limit of this array.
  [[nodiscard]] bool fits(std::size_t n) const { return n * 8 <= slots_.size() * 7; }

  /// The slot holding `key`, or the vacant slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view key) const {
    const Packed k = pack(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(key) & mask;; i = (i + 1) & mask) {
      const unsigned char tag = tags_[i];
      if (tag == kVacant) return i;
      if (tag == k.tag &&
          (tag == kHeap ? *heap_key(slots_[i].key) == key : slots_[i].key == k.word)) {
        return i;
      }
    }
  }

  void grow(std::size_t n) {
    std::size_t capacity = slots_.empty() ? kMinCapacity : slots_.size();
    while (n * 8 > capacity * 7) capacity *= 2;
    std::vector<Slot> old_slots = std::exchange(slots_, std::vector<Slot>(capacity));
    std::vector<unsigned char> old_tags =
        std::exchange(tags_, std::vector<unsigned char>(capacity, kVacant));
    for (std::size_t j = 0; j < old_tags.size(); ++j) {
      if (old_tags[j] == kVacant) continue;
      const std::size_t i = probe(key_view(old_tags[j], old_slots[j].key));
      slots_[i] = std::move(old_slots[j]);  // a heap key's pointer moves with its word
      tags_[i] = old_tags[j];
    }
  }

  std::vector<Slot> slots_;
  std::vector<unsigned char> tags_;  // per slot: inline key length, kHeap or kVacant
  std::size_t size_ = 0;
};

}  // namespace domino

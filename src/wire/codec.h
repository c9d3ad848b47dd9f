// Binary wire codec.
//
// Every protocol message in this repository is serialized to bytes before
// crossing the simulated network and parsed on receipt, mirroring what a
// gRPC/protobuf deployment would do. The codec is a compact hand-rolled
// format: little-endian fixed integers, LEB128 varints, zig-zag signed
// varints, and length-prefixed strings.
//
// Like a protobuf schema, each wire struct (message, durable record,
// catch-up aux body) declares its fields once, in wire order:
//
//   static auto fields(auto& m) { return std::tie(m.ts, m.lane, m.command); }
//
// and write(), read() and min_size() derive the encoding, the decoding and
// the allocation guard from that one list (see "Field-list codec" below).
//
// Decoding is defensive: all reads are bounds-checked and malformed input
// raises WireError rather than reading out of bounds.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace domino::wire {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

using Payload = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// LEB128 unsigned varint.
  void varint(std::uint64_t v);

  /// Zig-zag encoded signed varint.
  void svarint(std::int64_t v);

  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> data);

  void node_id(NodeId id) { u32(id.value()); }
  void request_id(const RequestId& id);
  void time_point(TimePoint t) { svarint(t.nanos()); }
  void duration(Duration d) { svarint(d.nanos()); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] Payload take() { return std::move(buf_); }
  /// Empty the buffer, keeping its capacity for the next encoding.
  void clear() { buf_.clear(); }
  [[nodiscard]] const Payload& buffer() const { return buf_; }

 private:
  Payload buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  std::int64_t svarint();

  /// Read a container length prefix, rejecting values that could not
  /// possibly be backed by the remaining bytes (each element occupies at
  /// least `min_element_bytes`). Guards decoders against allocation bombs.
  std::uint64_t length_prefix(std::size_t min_element_bytes = 1);
  bool boolean() { return u8() != 0; }
  std::string str();
  Payload bytes();

  NodeId node_id() { return NodeId{u32()}; }
  RequestId request_id();
  TimePoint time_point() { return TimePoint{svarint()}; }
  Duration duration() { return Duration{svarint()}; }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  /// Throws WireError unless all bytes have been consumed.
  void expect_exhausted() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field-list codec. Encoding by type:
//   bool                        one byte
//   signed integers             svarint
//   unsigned integers, enums    varint
//   std::string                 str;  Payload: bytes
//   NodeId                      fixed u32
//   RequestId, TimePoint,
//   Duration                    their ByteWriter methods
//   double                      the 8-byte bit pattern
//   std::optional<T>            presence byte, then T
//   std::vector<T>              count, then the elements
//   a struct with fields()      its fields in declaration order

/// A struct that lists its wire fields.
template <typename T>
concept FieldList = requires(T& m) { T::fields(m); };

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
void write(ByteWriter& w, const T& v) {
  if constexpr (FieldList<T>) {
    std::apply([&w](const auto&... f) { (write(w, f), ...); }, T::fields(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.u64(std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::is_enum_v<T>) {
    w.varint(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    w.svarint(v);
  } else if constexpr (std::is_integral_v<T>) {
    w.varint(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Payload>) {
    w.bytes(v);
  } else if constexpr (std::is_same_v<T, NodeId>) {
    w.node_id(v);
  } else if constexpr (std::is_same_v<T, RequestId>) {
    w.request_id(v);
  } else if constexpr (std::is_same_v<T, TimePoint>) {
    w.time_point(v);
  } else if constexpr (std::is_same_v<T, Duration>) {
    w.duration(v);
  } else if constexpr (kIsOptional<T>) {
    w.boolean(v.has_value());
    if (v) write(w, *v);
  } else {
    static_assert(kIsVector<T>, "wire::write: type has no wire encoding");
    w.varint(v.size());
    for (const auto& e : v) write(w, e);
  }
}

/// The fewest bytes any encoding of T occupies; vector decoding passes it
/// to ByteReader::length_prefix as the allocation guard.
template <typename T>
[[nodiscard]] constexpr std::size_t min_size() {
  if constexpr (FieldList<T>) {
    return []<typename... F>(std::type_identity<std::tuple<F&...>>) {
      return (std::size_t{0} + ... + min_size<std::remove_const_t<F>>());
    }(std::type_identity<decltype(T::fields(std::declval<T&>()))>{});
  } else if constexpr (std::is_same_v<T, double>) {
    return 8;
  } else if constexpr (std::is_same_v<T, NodeId>) {
    return 4;
  } else if constexpr (std::is_same_v<T, RequestId>) {
    return 5;
  } else {
    return 1;  // one byte: bool, varint, length or presence prefix
  }
}

namespace detail {

/// Decode into a freshly constructed `v`, field by field in place.
template <typename T>
void read_into(ByteReader& r, T& v) {
  if constexpr (FieldList<T>) {
    std::apply([&r](auto&... f) { (read_into(r, f), ...); }, T::fields(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, double>) {
    v = std::bit_cast<double>(r.u64());
  } else if constexpr (std::is_enum_v<T> || (std::is_integral_v<T> && std::is_unsigned_v<T>)) {
    v = static_cast<T>(r.varint());
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(r.svarint());
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, Payload>) {
    v = r.bytes();
  } else if constexpr (std::is_same_v<T, NodeId>) {
    v = r.node_id();
  } else if constexpr (std::is_same_v<T, RequestId>) {
    v = r.request_id();
  } else if constexpr (std::is_same_v<T, TimePoint>) {
    v = r.time_point();
  } else if constexpr (std::is_same_v<T, Duration>) {
    v = r.duration();
  } else if constexpr (kIsOptional<T>) {
    if (r.boolean()) read_into(r, v.emplace());
  } else {
    static_assert(kIsVector<T>, "wire::read: type has no wire encoding");
    v.resize(r.length_prefix(min_size<typename T::value_type>()));
    for (auto& e : v) read_into(r, e);
  }
}

}  // namespace detail

template <typename T>
[[nodiscard]] T read(ByteReader& r) {
  T v{};
  detail::read_into(r, v);
  return v;
}

/// Encode `v` as a bare body (no envelope): durable records, aux bytes.
template <typename T>
[[nodiscard]] Payload to_bytes(const T& v) {
  ByteWriter w;
  write(w, v);
  return w.take();
}

/// Decode a bare body written by to_bytes; trailing bytes are an error.
template <typename T>
[[nodiscard]] T from_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  T v = read<T>(r);
  r.expect_exhausted();
  return v;
}

}  // namespace domino::wire

#include "wire/codec.h"

namespace domino::wire {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::svarint(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  varint(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::request_id(const RequestId& id) {
  node_id(id.client);
  varint(id.seq);
}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw WireError("ByteReader: truncated input");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64) throw WireError("ByteReader: varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::int64_t ByteReader::svarint() {
  const std::uint64_t u = varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::uint64_t ByteReader::length_prefix(std::size_t min_element_bytes) {
  const std::uint64_t n = varint();
  const std::size_t min_bytes = min_element_bytes == 0 ? 1 : min_element_bytes;
  if (n > remaining() / min_bytes) {
    throw WireError("ByteReader: length prefix exceeds remaining payload");
  }
  return n;
}

std::string ByteReader::str() {
  const std::uint64_t n = varint();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Payload ByteReader::bytes() {
  const std::uint64_t n = varint();
  need(n);
  Payload p(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return p;
}

RequestId ByteReader::request_id() {
  RequestId id;
  id.client = node_id();
  id.seq = varint();
  return id;
}

void ByteReader::expect_exhausted() const {
  if (!exhausted()) throw WireError("ByteReader: trailing bytes after message");
}

}  // namespace domino::wire

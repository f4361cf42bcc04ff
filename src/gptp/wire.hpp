// Big-endian (network order) byte stream primitives for PTP wire formats.
//
// The writer is generic over the output container (std::vector<uint8_t> or
// net::Payload) so hot paths can serialize straight into a pooled frame's
// inline payload without an intermediate heap vector. The reader is inline
// too: every received gPTP frame is parsed through it.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "gptp/types.hpp"

namespace tsn::gptp {

template <class Buf>
class BasicByteWriter {
 public:
  explicit BasicByteWriter(Buf& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u48(std::uint64_t v) {
    u16(static_cast<std::uint16_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const std::uint8_t* data, std::size_t n) {
    out_.insert(out_.end(), data, data + n);
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }
  void timestamp(const Timestamp& ts) { // 10 bytes: 48-bit s + 32-bit ns
    u48(ts.seconds);
    u32(ts.nanoseconds);
  }
  void clock_identity(const ClockIdentity& id) {
    bytes(id.bytes().data(), id.bytes().size());
  }
  void port_identity(const PortIdentity& id) {
    clock_identity(id.clock);
    u16(id.port);
  }

  std::size_t size() const { return out_.size(); }
  /// Patch a previously written big-endian u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

 private:
  Buf& out_;
};

using ByteWriter = BasicByteWriter<std::vector<std::uint8_t>>;

/// Bounds-checked big-endian reader over wire bytes. Each field costs one
/// bounds check. Reading past the end (or any read after a failed one)
/// yields zeros and leaves ok() false; parsers check ok() once at the end.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  /// From any contiguous byte container (std::vector, net::Payload, ...).
  template <class C, typename = std::enable_if_t<!std::is_same_v<std::decay_t<C>, ByteReader>,
                                                 decltype(std::declval<const C&>().data())>>
  explicit ByteReader(const C& buf) : data_(buf.data()), size_(buf.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() {
    const std::uint8_t* p = take(1);
    return p ? p[0] : 0;
  }
  std::uint16_t u16() {
    const std::uint8_t* p = take(2);
    return p ? load16(p) : 0;
  }
  std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    return p ? load32(p) : 0;
  }
  std::uint64_t u48() {
    const std::uint8_t* p = take(6);
    return p ? load48(p) : 0;
  }
  std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    return p ? (std::uint64_t{load32(p)} << 32) | load32(p + 4) : 0;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  void skip(std::size_t n) { take(n); }
  Timestamp timestamp() { // 10 bytes: 48-bit s + 32-bit ns
    Timestamp ts;
    if (const std::uint8_t* p = take(10)) {
      ts.seconds = load48(p);
      ts.nanoseconds = load32(p + 6);
    }
    return ts;
  }
  ClockIdentity clock_identity() {
    std::array<std::uint8_t, 8> b{};
    if (const std::uint8_t* p = take(8)) std::memcpy(b.data(), p, b.size());
    return ClockIdentity(b);
  }
  PortIdentity port_identity() {
    PortIdentity id;
    id.clock = clock_identity();
    id.port = u16();
    return id;
  }

 private:
  /// The next `n` bytes, or null (and ok() false) when fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  static std::uint16_t load16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  }
  static std::uint32_t load32(const std::uint8_t* p) {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }
  static std::uint64_t load48(const std::uint8_t* p) {
    return (std::uint64_t{load16(p)} << 32) | load32(p + 2);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

} // namespace tsn::gptp

// Ethernet frames with optional 802.1Q VLAN tag.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <vector>

#include "net/mac.hpp"

namespace tsn::net {

/// EtherTypes used in the reproduction.
inline constexpr std::uint16_t kEtherTypePtp = 0x88F7;
inline constexpr std::uint16_t kEtherTypeMeasurement = 0x88B5; // IEEE local experimental

struct VlanTag {
  std::uint16_t vid = 0; // 12-bit VLAN id
  std::uint8_t pcp = 0;  // 3-bit priority code point

  friend bool operator==(const VlanTag&, const VlanTag&) = default;
};

/// Frame payload with small-buffer storage: 96 inline bytes cover every
/// gPTP PDU the stack builds (the largest fixed-size message, FollowUp
/// with its information TLV, is 76 bytes), so the frame hot path never
/// allocates. Oversize payloads (Announce with a long path-trace TLV,
/// jumbo measurement frames) transparently spill to the heap.
///
/// The interface is the subset of std::vector<uint8_t> the codebase uses,
/// so wire writers/readers work over either container.
class Payload {
 public:
  static constexpr std::size_t kInlineCapacity = 96;

  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  Payload() = default;
  Payload(std::initializer_list<std::uint8_t> init) { assign(init.begin(), init.size()); }
  explicit Payload(const std::vector<std::uint8_t>& v) { assign(v.data(), v.size()); }

  Payload(const Payload& other) { assign(other.data(), other.size()); }
  Payload& operator=(const Payload& other) {
    if (this != &other) assign(other.data(), other.size());
    return *this;
  }
  Payload& operator=(const std::vector<std::uint8_t>& v) {
    assign(v.data(), v.size());
    return *this;
  }
  Payload& operator=(std::initializer_list<std::uint8_t> init) {
    assign(init.begin(), init.size());
    return *this;
  }

  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      if (is_heap()) delete[] data_;
      steal(other);
    }
    return *this;
  }

  ~Payload() {
    if (is_heap()) delete[] data_;
  }

  const std::uint8_t* data() const { return data_; }
  std::uint8_t* data() { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  bool is_heap() const { return data_ != inline_; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  std::uint8_t& operator[](std::size_t i) { return data_[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  /// New bytes are zero-initialized (vector semantics).
  void resize(std::size_t n) {
    if (n > cap_) grow(n);
    if (n > size_) std::memset(data_ + size_, 0, n - size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(std::uint8_t b) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = b;
  }

  void append(const std::uint8_t* src, std::size_t n) {
    if (size_ + n > cap_) grow(size_ + n);
    std::memcpy(data_ + size_, src, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  void append_zeros(std::size_t n) {
    if (size_ + n > cap_) grow(size_ + n);
    std::memset(data_ + size_, 0, n);
    size_ += static_cast<std::uint32_t>(n);
  }

  void assign(const std::uint8_t* src, std::size_t n) {
    clear();
    append(src, n);
  }

  /// The first `n` bytes of a full inline-size image (n <= kInlineCapacity).
  /// Copies the whole image: a constant-size copy, for template-built
  /// frames that every hop sends.
  void assign_image(const std::array<std::uint8_t, kInlineCapacity>& image, std::size_t n) {
    assert(n <= kInlineCapacity);
    reset();
    std::memcpy(inline_, image.data(), kInlineCapacity);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Append-only insert (vector-compatible shim for the wire writers,
  /// which only ever insert at end()).
  void insert(const_iterator pos, const std::uint8_t* first, const std::uint8_t* last) {
    (void)pos;
    append(first, static_cast<std::size_t>(last - first));
  }
  void insert(const_iterator pos, std::size_t n, std::uint8_t v) {
    (void)pos;
    if (v == 0) {
      append_zeros(n);
    } else {
      if (size_ + n > cap_) grow(size_ + n);
      std::memset(data_ + size_, v, n);
      size_ += static_cast<std::uint32_t>(n);
    }
  }

  /// Drop any heap spill and return to the pristine inline state. Used by
  /// the frame pool so recycled buffers stay at their 96-byte footprint.
  void reset() {
    if (is_heap()) delete[] data_;
    data_ = inline_;
    size_ = 0;
    cap_ = kInlineCapacity;
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.size_ == b.size_ && std::memcmp(a.data_, b.data_, a.size_) == 0;
  }
  friend bool operator==(const Payload& a, const std::vector<std::uint8_t>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
  }
  friend bool operator==(const std::vector<std::uint8_t>& a, const Payload& b) {
    return b == a;
  }

 private:
  void grow(std::size_t need) {
    std::size_t cap = cap_;
    while (cap < need) cap *= 2;
    auto* p = new std::uint8_t[cap];
    std::memcpy(p, data_, size_);
    if (is_heap()) delete[] data_;
    data_ = p;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  void steal(Payload& other) noexcept {
    if (other.is_heap()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_;
      other.cap_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      data_ = inline_;
      cap_ = kInlineCapacity;
      size_ = other.size_;
      std::memcpy(inline_, other.inline_, other.size_);
      other.size_ = 0;
    }
  }

  std::uint8_t* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineCapacity;
  alignas(8) std::uint8_t inline_[kInlineCapacity];
};

struct EthernetFrame {
  MacAddress dst;
  MacAddress src;
  std::optional<VlanTag> vlan;
  std::uint16_t ethertype = 0;
  Payload payload;

  /// On-wire size in bytes incl. header, FCS, and minimum-frame padding
  /// (preamble/IFG accounted for separately in the serialization model).
  std::size_t wire_size() const;
};

} // namespace tsn::net

// Pre-built gPTP message images with field patching.
//
// Sync/FollowUp/Pdelay transmissions differ from one another only in a
// handful of fields (sequenceId, timestamps, correction, requesting port).
// Re-serializing the whole PDU per transmission costs a field-by-field
// rebuild; instead each sender serializes a prototype once at setup and
// per transmission patches the few bytes that change, then copies the
// whole fixed-size image into a pooled frame. Offsets follow IEEE
// 1588-2019 clause 13 and are cross-checked against the generic
// serializer by the unit tests.
//
// Only fixed-size messages are supported (<= 96 bytes, the frame pool's
// inline payload). Announce with its variable path-trace TLV stays on the
// generic serialize_into path.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "gptp/messages.hpp"
#include "net/frame_pool.hpp"

namespace tsn::gptp {

class MessageTemplate {
 public:
  // Header offsets (common to all PTP messages).
  static constexpr std::size_t kOffLength = 2;
  static constexpr std::size_t kOffDomain = 4;
  static constexpr std::size_t kOffCorrection = 8;
  static constexpr std::size_t kOffSourcePort = 20;
  static constexpr std::size_t kOffSequenceId = 30;
  static constexpr std::size_t kOffLogInterval = 33;
  // Body offsets.
  static constexpr std::size_t kOffBodyTimestamp = 34; ///< origin/receipt ts
  static constexpr std::size_t kOffRequestingPort = 44; ///< *Resp messages
  static constexpr std::size_t kOffCsro = 54;           ///< FollowUp TLV
  static constexpr std::size_t kOffGmTimeBase = 58;     ///< FollowUp TLV
  static constexpr std::size_t kOffGmFreqChange = 72;   ///< FollowUp TLV

  explicit MessageTemplate(const Message& prototype);

  MessageType type() const { return type_; }
  const std::uint8_t* data() const { return bytes_.data(); }
  /// The whole inline-size buffer; bytes past size() are zero.
  const std::array<std::uint8_t, net::Payload::kInlineCapacity>& image() const { return bytes_; }
  std::size_t size() const { return size_; }

  void set_sequence_id(std::uint16_t v) { put_u16(kOffSequenceId, v); }
  void set_domain(std::uint8_t v) { bytes_[kOffDomain] = v; }
  void set_log_message_interval(std::int8_t v) {
    bytes_[kOffLogInterval] = static_cast<std::uint8_t>(v);
  }
  void set_correction_scaled(std::int64_t v) {
    put_u64(kOffCorrection, static_cast<std::uint64_t>(v));
  }
  void set_source_port(const PortIdentity& id) {
    put_port_identity(kOffSourcePort, id);
  }
  /// The 10-byte body timestamp (FollowUp preciseOrigin, DelayResp /
  /// PdelayResp receipt, PdelayRespFollowUp responseOrigin).
  void set_body_timestamp(const Timestamp& ts) {
    put_u48(kOffBodyTimestamp, ts.seconds);
    put_u32(kOffBodyTimestamp + 6, ts.nanoseconds);
  }
  void set_requesting_port(const PortIdentity& id) {
    put_port_identity(kOffRequestingPort, id);
  }
  void set_cumulative_scaled_rate_offset(std::int32_t v) {
    assert(type_ == MessageType::kFollowUp);
    put_u32(kOffCsro, static_cast<std::uint32_t>(v));
  }
  void set_gm_time_base_indicator(std::uint16_t v) {
    assert(type_ == MessageType::kFollowUp);
    put_u16(kOffGmTimeBase, v);
  }
  void set_scaled_last_gm_freq_change(std::int32_t v) {
    assert(type_ == MessageType::kFollowUp);
    put_u32(kOffGmFreqChange, static_cast<std::uint32_t>(v));
  }

 private:
  void put_u16(std::size_t off, std::uint16_t v) {
    bytes_[off] = static_cast<std::uint8_t>(v >> 8);
    bytes_[off + 1] = static_cast<std::uint8_t>(v);
  }
  void put_u32(std::size_t off, std::uint32_t v) {
    put_u16(off, static_cast<std::uint16_t>(v >> 16));
    put_u16(off + 2, static_cast<std::uint16_t>(v));
  }
  void put_u48(std::size_t off, std::uint64_t v) {
    put_u16(off, static_cast<std::uint16_t>(v >> 32));
    put_u32(off + 2, static_cast<std::uint32_t>(v));
  }
  void put_u64(std::size_t off, std::uint64_t v) {
    put_u32(off, static_cast<std::uint32_t>(v >> 32));
    put_u32(off + 4, static_cast<std::uint32_t>(v));
  }
  void put_port_identity(std::size_t off, const PortIdentity& id);

  std::array<std::uint8_t, net::Payload::kInlineCapacity> bytes_{};
  std::uint8_t size_ = 0;
  MessageType type_;
};

/// A pooled gPTP frame (multicast dst, PTP ethertype) carrying the
/// template's current image; sole reference, ready for Nic::send /
/// Switch::send_from_port.
net::FrameRef make_ptp_frame(const MessageTemplate& tpl);

} // namespace tsn::gptp

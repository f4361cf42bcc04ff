#include "gptp/messages.hpp"

#include "gptp/wire.hpp"
#include "net/frame.hpp"

namespace tsn::gptp {
namespace {

constexpr std::uint8_t kTransportSpecific = 1; // 802.1AS
constexpr std::uint8_t kVersionPtp = 2;
constexpr std::uint16_t kFlagTwoStep = 0x0200;     // flagField[0] bit 1
constexpr std::uint16_t kFlagPtpTimescale = 0x0008; // flagField[1] bit 3

constexpr std::uint16_t kTlvOrgExtension = 0x0003;
constexpr std::uint16_t kTlvPathTrace = 0x0008;

std::uint8_t control_field(MessageType type) {
  switch (type) {
    case MessageType::kSync: return 0;
    case MessageType::kFollowUp: return 2;
    default: return 5;
  }
}

template <class Buf>
void write_header(BasicByteWriter<Buf>& w, const MessageHeader& h) {
  w.u8(static_cast<std::uint8_t>((kTransportSpecific << 4) |
                                 static_cast<std::uint8_t>(h.type)));
  w.u8(kVersionPtp);
  w.u16(0); // messageLength, patched at offset 2 once the body is complete
  w.u8(h.domain);
  w.u8(0); // minorSdoId
  w.u16(static_cast<std::uint16_t>((h.two_step ? kFlagTwoStep : 0) | kFlagPtpTimescale));
  w.i64(h.correction_scaled);
  w.u32(0); // messageTypeSpecific
  w.port_identity(h.source_port);
  w.u16(h.sequence_id);
  w.u8(control_field(h.type));
  w.u8(static_cast<std::uint8_t>(h.log_message_interval));
}

bool read_header(ByteReader& r, MessageHeader& h) {
  const std::size_t size = r.remaining();
  const std::uint8_t type_byte = r.u8();
  if ((type_byte >> 4) != kTransportSpecific) return false;
  h.type = static_cast<MessageType>(type_byte & 0x0F);
  const std::uint8_t version = r.u8();
  if ((version & 0x0F) != kVersionPtp) return false;
  // A message longer than the buffer was truncated, even where every
  // field read so far fits (an Announce cut before its path trace).
  if (r.u16() > size) return false; // messageLength
  h.domain = r.u8();
  r.u8(); // minorSdoId
  const std::uint16_t flags = r.u16();
  h.two_step = (flags & kFlagTwoStep) != 0;
  h.correction_scaled = r.i64();
  r.u32(); // messageTypeSpecific
  h.source_port = r.port_identity();
  h.sequence_id = r.u16();
  r.u8(); // controlField
  h.log_message_interval = static_cast<std::int8_t>(r.u8());
  return r.ok();
}

// Appends at the current end of `out`; the messageLength field is patched
// relative to `base`, so serialization composes with non-empty buffers.
template <class Buf>
struct SerializerT {
  Buf& out;
  std::size_t base;

  void finish(BasicByteWriter<Buf>& w) {
    w.patch_u16(base + 2, static_cast<std::uint16_t>(out.size() - base));
  }

  void operator()(const SyncMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(10); // reserved originTimestamp
    finish(w);
  }

  void operator()(const FollowUpMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.precise_origin);
    // Follow_Up information TLV (802.1AS 11.4.4.3).
    w.u16(kTlvOrgExtension);
    w.u16(28);
    w.u8(0x00); w.u8(0x80); w.u8(0xC2); // organizationId
    w.u8(0); w.u8(0); w.u8(1);          // organizationSubType = 1
    w.i32(m.cumulative_scaled_rate_offset);
    w.u16(m.gm_time_base_indicator);
    w.zeros(12); // lastGmPhaseChange
    w.i32(m.scaled_last_gm_freq_change);
    finish(w);
  }

  void operator()(const PdelayReqMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(20); // reserved
    finish(w);
  }

  void operator()(const DelayReqMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(10); // originTimestamp (zero: HW timestamping)
    finish(w);
  }

  void operator()(const DelayRespMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.receive_timestamp);
    w.port_identity(m.requesting_port);
    finish(w);
  }

  void operator()(const PdelayRespMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.request_receipt);
    w.port_identity(m.requesting_port);
    finish(w);
  }

  void operator()(const PdelayRespFollowUpMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.timestamp(m.response_origin);
    w.port_identity(m.requesting_port);
    finish(w);
  }

  void operator()(const AnnounceMessage& m) {
    BasicByteWriter<Buf> w(out);
    write_header(w, m.header);
    w.zeros(10); // originTimestamp (reserved in 802.1AS)
    w.u16(0);    // currentUtcOffset
    w.u8(0);     // reserved
    w.u8(m.grandmaster_priority1);
    w.u8(m.grandmaster_quality.clock_class);
    w.u8(m.grandmaster_quality.clock_accuracy);
    w.u16(m.grandmaster_quality.offset_scaled_log_variance);
    w.u8(m.grandmaster_priority2);
    w.clock_identity(m.grandmaster_identity);
    w.u16(m.steps_removed);
    w.u8(m.time_source);
    if (!m.path_trace.empty()) {
      w.u16(kTlvPathTrace);
      w.u16(static_cast<std::uint16_t>(8 * m.path_trace.size()));
      for (const auto& id : m.path_trace) w.clock_identity(id);
    }
    finish(w);
  }
};

// Starts alternative M with header `h` inside `out`. parse runs on every
// received frame, so each message is built in place, never moved.
template <class M>
M& begin_message(std::optional<Message>& out, const MessageHeader& h) {
  M& m = std::get<M>(out.emplace(std::in_place_type<M>));
  m.header = h;
  return m;
}

// Fills `out` from the body after header `h`; leaves it empty on an
// unknown type or a bad TLV. Truncation surfaces as !r.ok().
void parse_body(ByteReader& r, const MessageHeader& h, std::optional<Message>& out) {
  switch (h.type) {
    case MessageType::kSync:
      begin_message<SyncMessage>(out, h);
      r.skip(10);
      return;
    case MessageType::kFollowUp: {
      auto& m = begin_message<FollowUpMessage>(out, h);
      m.precise_origin = r.timestamp();
      if (r.u16() != kTlvOrgExtension || r.u16() != 28) {
        out.reset();
        return;
      }
      r.skip(6); // organizationId + subtype
      m.cumulative_scaled_rate_offset = r.i32();
      m.gm_time_base_indicator = r.u16();
      r.skip(12);
      m.scaled_last_gm_freq_change = r.i32();
      return;
    }
    case MessageType::kPdelayReq:
      begin_message<PdelayReqMessage>(out, h);
      r.skip(20);
      return;
    case MessageType::kDelayReq:
      begin_message<DelayReqMessage>(out, h);
      r.skip(10);
      return;
    case MessageType::kDelayResp: {
      auto& m = begin_message<DelayRespMessage>(out, h);
      m.receive_timestamp = r.timestamp();
      m.requesting_port = r.port_identity();
      return;
    }
    case MessageType::kPdelayResp: {
      auto& m = begin_message<PdelayRespMessage>(out, h);
      m.request_receipt = r.timestamp();
      m.requesting_port = r.port_identity();
      return;
    }
    case MessageType::kPdelayRespFollowUp: {
      auto& m = begin_message<PdelayRespFollowUpMessage>(out, h);
      m.response_origin = r.timestamp();
      m.requesting_port = r.port_identity();
      return;
    }
    case MessageType::kAnnounce: {
      auto& m = begin_message<AnnounceMessage>(out, h);
      r.skip(10); // originTimestamp
      r.u16();    // currentUtcOffset
      r.u8();     // reserved
      m.grandmaster_priority1 = r.u8();
      m.grandmaster_quality.clock_class = r.u8();
      m.grandmaster_quality.clock_accuracy = r.u8();
      m.grandmaster_quality.offset_scaled_log_variance = r.u16();
      m.grandmaster_priority2 = r.u8();
      m.grandmaster_identity = r.clock_identity();
      m.steps_removed = r.u16();
      m.time_source = r.u8();
      if (r.remaining() >= 4) {
        if (r.u16() == kTlvPathTrace) {
          const std::uint16_t len = r.u16();
          if (len % 8 != 0 || len > r.remaining()) {
            out.reset();
            return;
          }
          for (std::uint16_t i = 0; i < len / 8; ++i) {
            m.path_trace.push_back(r.clock_identity());
          }
        }
      }
      return;
    }
  }
}

} // namespace

const MessageHeader& header_of(const Message& msg) {
  return std::visit([](const auto& m) -> const MessageHeader& { return m.header; }, msg);
}

MessageHeader& header_of(Message& msg) {
  return std::visit([](auto& m) -> MessageHeader& { return m.header; }, msg);
}

std::vector<std::uint8_t> serialize(const Message& msg) {
  std::vector<std::uint8_t> out;
  serialize_into(msg, out);
  return out;
}

void serialize_into(const Message& msg, std::vector<std::uint8_t>& out) {
  std::visit(SerializerT<std::vector<std::uint8_t>>{out, out.size()}, msg);
}

void serialize_into(const Message& msg, net::Payload& out) {
  std::visit(SerializerT<net::Payload>{out, out.size()}, msg);
}

std::optional<Message> parse(const std::uint8_t* data, std::size_t size) {
  std::optional<Message> out;
  ByteReader r(data, size);
  MessageHeader h;
  if (!read_header(r, h)) return out;
  parse_body(r, h, out);
  if (!r.ok()) out.reset();
  return out;
}

} // namespace tsn::gptp

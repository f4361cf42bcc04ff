#include <gtest/gtest.h>

#include <random>

#include "gptp/messages.hpp"
#include "gptp/wire.hpp"

namespace tsn::gptp {
namespace {

MessageHeader sample_header(MessageType type) {
  MessageHeader h;
  h.type = type;
  h.domain = 3;
  h.two_step = (type == MessageType::kSync);
  h.correction_scaled = scaled_ns::from_ns(12345.5);
  h.source_port = {ClockIdentity::from_u64(0x0011223344556677ULL), 2};
  h.sequence_id = 0xBEEF;
  h.log_message_interval = -3;
  return h;
}

/// One instance of each of the eight message types, every field drawn
/// uniformly over its wire range.
std::vector<Message> random_messages(std::mt19937_64& rng) {
  const auto bits = [&](int n) { return rng() & ((std::uint64_t{1} << n) - 1); };
  const auto header = [&](MessageType type) {
    MessageHeader h;
    h.type = type;
    h.domain = static_cast<std::uint8_t>(bits(8));
    h.two_step = bits(1) != 0;
    h.correction_scaled = static_cast<std::int64_t>(rng());
    h.source_port = {ClockIdentity::from_u64(rng()), static_cast<std::uint16_t>(bits(16))};
    h.sequence_id = static_cast<std::uint16_t>(bits(16));
    h.log_message_interval = static_cast<std::int8_t>(bits(8));
    return h;
  };
  const auto timestamp = [&] { return Timestamp{bits(48), static_cast<std::uint32_t>(bits(32))}; };
  const auto port = [&] {
    return PortIdentity{ClockIdentity::from_u64(rng()), static_cast<std::uint16_t>(bits(16))};
  };

  FollowUpMessage fup;
  fup.header = header(MessageType::kFollowUp);
  fup.precise_origin = timestamp();
  fup.cumulative_scaled_rate_offset = static_cast<std::int32_t>(bits(32));
  fup.gm_time_base_indicator = static_cast<std::uint16_t>(bits(16));
  fup.scaled_last_gm_freq_change = static_cast<std::int32_t>(bits(32));
  DelayRespMessage dresp;
  dresp.header = header(MessageType::kDelayResp);
  dresp.receive_timestamp = timestamp();
  dresp.requesting_port = port();
  PdelayRespMessage presp;
  presp.header = header(MessageType::kPdelayResp);
  presp.request_receipt = timestamp();
  presp.requesting_port = port();
  PdelayRespFollowUpMessage pfup;
  pfup.header = header(MessageType::kPdelayRespFollowUp);
  pfup.response_origin = timestamp();
  pfup.requesting_port = port();
  AnnounceMessage ann;
  ann.header = header(MessageType::kAnnounce);
  ann.grandmaster_priority1 = static_cast<std::uint8_t>(bits(8));
  ann.grandmaster_quality = {static_cast<std::uint8_t>(bits(8)), static_cast<std::uint8_t>(bits(8)),
                             static_cast<std::uint16_t>(bits(16))};
  ann.grandmaster_priority2 = static_cast<std::uint8_t>(bits(8));
  ann.grandmaster_identity = ClockIdentity::from_u64(rng());
  ann.steps_removed = static_cast<std::uint16_t>(bits(16));
  ann.time_source = static_cast<std::uint8_t>(bits(8));
  for (std::uint64_t i = 0, n = 1 + bits(2); i < n; ++i) {
    ann.path_trace.push_back(ClockIdentity::from_u64(rng()));
  }
  return {SyncMessage{header(MessageType::kSync)},
          fup,
          PdelayReqMessage{header(MessageType::kPdelayReq)},
          presp,
          pfup,
          ann,
          DelayReqMessage{header(MessageType::kDelayReq)},
          dresp};
}

TEST(WireTest, U16U32U48U64RoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u48(0x0000123456789ABCULL);
  w.u64(0xFEDCBA9876543210ULL);
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u48(), 0x0000123456789ABCULL);
  EXPECT_EQ(r.u64(), 0xFEDCBA9876543210ULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, BigEndianOnTheWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x1234);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
}

TEST(WireTest, ReaderUnderflowSetsNotOk) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  r.u32();
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, TimestampRoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const Timestamp ts = Timestamp::from_ns(1'234'567'890'123LL);
  w.timestamp(ts);
  EXPECT_EQ(buf.size(), 10u);
  ByteReader r(buf);
  EXPECT_EQ(r.timestamp(), ts);
}

TEST(TypesTest, TimestampConversion) {
  const Timestamp ts = Timestamp::from_ns(5'000'000'123LL);
  EXPECT_EQ(ts.seconds, 5u);
  EXPECT_EQ(ts.nanoseconds, 123u);
  EXPECT_EQ(ts.to_ns(), 5'000'000'123LL);
  EXPECT_EQ(Timestamp::from_ns(-5).to_ns(), 0); // clamped at the epoch
}

TEST(TypesTest, ScaledNsRoundTrip) {
  EXPECT_DOUBLE_EQ(scaled_ns::to_ns(scaled_ns::from_ns(1000.25)), 1000.25);
  EXPECT_EQ(scaled_ns::from_ns(1.0), 65536);
  EXPECT_DOUBLE_EQ(scaled_ns::to_ns(-65536), -1.0);
}

TEST(TypesTest, RateOffsetRoundTrip) {
  // +5 ppm rate ratio survives the 2^-41 quantization to ~1e-12.
  const double ratio = 1.000005;
  EXPECT_NEAR(rate_offset::to_ratio(rate_offset::from_ratio(ratio)), ratio, 1e-11);
  EXPECT_EQ(rate_offset::from_ratio(1.0), 0);
}

TEST(TypesTest, ClockIdentityString) {
  const auto id = ClockIdentity::from_u64(0x0011223344556677ULL);
  EXPECT_EQ(id.to_string(), "001122.3344.556677");
  EXPECT_EQ(id.to_u64(), 0x0011223344556677ULL);
}

TEST(MessagesTest, SyncRoundTrip) {
  SyncMessage m{sample_header(MessageType::kSync)};
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 44u); // 34 header + 10 reserved
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* sync = std::get_if<SyncMessage>(&*parsed);
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->header.domain, 3);
  EXPECT_TRUE(sync->header.two_step);
  EXPECT_EQ(sync->header.sequence_id, 0xBEEF);
  EXPECT_EQ(sync->header.correction_scaled, scaled_ns::from_ns(12345.5));
  EXPECT_EQ(sync->header.source_port.port, 2);
  EXPECT_EQ(sync->header.log_message_interval, -3);
}

TEST(MessagesTest, FollowUpRoundTripWithTlv) {
  FollowUpMessage m;
  m.header = sample_header(MessageType::kFollowUp);
  m.precise_origin = Timestamp::from_ns(987'654'321'000LL);
  m.cumulative_scaled_rate_offset = rate_offset::from_ratio(1.0000042);
  m.gm_time_base_indicator = 7;
  m.scaled_last_gm_freq_change = -42;
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 76u); // 34 + 10 + 32 TLV
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* fup = std::get_if<FollowUpMessage>(&*parsed);
  ASSERT_NE(fup, nullptr);
  EXPECT_EQ(fup->precise_origin.to_ns(), 987'654'321'000LL);
  EXPECT_EQ(fup->cumulative_scaled_rate_offset, m.cumulative_scaled_rate_offset);
  EXPECT_EQ(fup->gm_time_base_indicator, 7);
  EXPECT_EQ(fup->scaled_last_gm_freq_change, -42);
  EXPECT_NEAR(fup->rate_ratio(), 1.0000042, 1e-11);
}

TEST(MessagesTest, PdelayReqRoundTrip) {
  PdelayReqMessage m{sample_header(MessageType::kPdelayReq)};
  const auto bytes = serialize(Message{m});
  EXPECT_EQ(bytes.size(), 54u);
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(std::get_if<PdelayReqMessage>(&*parsed), nullptr);
}

TEST(MessagesTest, PdelayRespRoundTrip) {
  PdelayRespMessage m;
  m.header = sample_header(MessageType::kPdelayResp);
  m.request_receipt = Timestamp::from_ns(123'456'789LL);
  m.requesting_port = {ClockIdentity::from_u64(0xAA), 9};
  const auto bytes = serialize(Message{m});
  const auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* resp = std::get_if<PdelayRespMessage>(&*parsed);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->request_receipt.to_ns(), 123'456'789LL);
  EXPECT_EQ(resp->requesting_port.port, 9);
}

TEST(MessagesTest, PdelayRespFollowUpRoundTrip) {
  PdelayRespFollowUpMessage m;
  m.header = sample_header(MessageType::kPdelayRespFollowUp);
  m.response_origin = Timestamp::from_ns(42);
  m.requesting_port = {ClockIdentity::from_u64(0xBB), 1};
  const auto parsed = parse(serialize(Message{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* fup = std::get_if<PdelayRespFollowUpMessage>(&*parsed);
  ASSERT_NE(fup, nullptr);
  EXPECT_EQ(fup->response_origin.to_ns(), 42);
}

TEST(MessagesTest, AnnounceRoundTripWithPathTrace) {
  AnnounceMessage m;
  m.header = sample_header(MessageType::kAnnounce);
  m.grandmaster_priority1 = 100;
  m.grandmaster_priority2 = 200;
  m.grandmaster_quality = {6, 0x20, 0x1234};
  m.grandmaster_identity = ClockIdentity::from_u64(0xCAFE);
  m.steps_removed = 3;
  m.time_source = 0x10;
  m.path_trace = {ClockIdentity::from_u64(1), ClockIdentity::from_u64(2)};
  const auto parsed = parse(serialize(Message{m}));
  ASSERT_TRUE(parsed.has_value());
  const auto* ann = std::get_if<AnnounceMessage>(&*parsed);
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->grandmaster_priority1, 100);
  EXPECT_EQ(ann->grandmaster_quality.clock_class, 6);
  EXPECT_EQ(ann->grandmaster_quality.offset_scaled_log_variance, 0x1234);
  EXPECT_EQ(ann->grandmaster_identity.to_u64(), 0xCAFEu);
  EXPECT_EQ(ann->steps_removed, 3);
  ASSERT_EQ(ann->path_trace.size(), 2u);
  EXPECT_EQ(ann->path_trace[1].to_u64(), 2u);
}

TEST(MessagesTest, AnnounceWithoutPathTrace) {
  AnnounceMessage m;
  m.header = sample_header(MessageType::kAnnounce);
  const auto parsed = parse(serialize(Message{m}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::get_if<AnnounceMessage>(&*parsed)->path_trace.empty());
}

TEST(MessagesTest, MessageLengthFieldMatches) {
  SyncMessage m{sample_header(MessageType::kSync)};
  const auto bytes = serialize(Message{m});
  const std::uint16_t len = static_cast<std::uint16_t>((bytes[2] << 8) | bytes[3]);
  EXPECT_EQ(len, bytes.size());
}

TEST(MessagesTest, TruncatedInputRejected) {
  SyncMessage m{sample_header(MessageType::kSync)};
  auto bytes = serialize(Message{m});
  bytes.resize(bytes.size() - 5);
  EXPECT_FALSE(parse(bytes).has_value());
}

TEST(MessagesTest, RandomFieldsRoundTripForEveryType) {
  // Re-serializing the parse reproduces the wire image only if every
  // field came back.
  std::mt19937_64 rng(16);
  for (int i = 0; i < 500; ++i) {
    const std::vector<Message> msgs = random_messages(rng);
    ASSERT_EQ(msgs.size(), std::variant_size_v<Message>);
    for (const Message& m : msgs) {
      const auto bytes = serialize(m);
      const auto parsed = parse(bytes);
      ASSERT_TRUE(parsed.has_value()) << "alternative " << m.index();
      EXPECT_EQ(parsed->index(), m.index());
      EXPECT_EQ(serialize(*parsed), bytes) << "alternative " << m.index();
    }
  }
}

TEST(MessagesTest, EveryStrictPrefixRejected) {
  std::mt19937_64 rng(17);
  for (const Message& m : random_messages(rng)) {
    const auto bytes = serialize(m);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_FALSE(parse(bytes.data(), n).has_value())
          << "alternative " << m.index() << ", " << n << " of " << bytes.size() << " bytes";
    }
  }
}

TEST(MessagesTest, EmptyAndGarbageRejected) {
  EXPECT_FALSE(parse(std::vector<std::uint8_t>{}).has_value());
  EXPECT_FALSE(parse(std::vector<std::uint8_t>(44, 0xFF)).has_value());
}

TEST(MessagesTest, WrongTransportSpecificRejected) {
  SyncMessage m{sample_header(MessageType::kSync)};
  auto bytes = serialize(Message{m});
  bytes[0] = (0x0 << 4) | 0x0; // transportSpecific = 0 (non-802.1AS)
  EXPECT_FALSE(parse(bytes).has_value());
}

TEST(MessagesTest, FollowUpWithMangledTlvRejected) {
  FollowUpMessage m;
  m.header = sample_header(MessageType::kFollowUp);
  auto bytes = serialize(Message{m});
  bytes[44] = 0xFF; // corrupt the TLV type
  EXPECT_FALSE(parse(bytes).has_value());
}

TEST(MessagesTest, HeaderOfAccessors) {
  Message m = SyncMessage{sample_header(MessageType::kSync)};
  EXPECT_EQ(header_of(m).sequence_id, 0xBEEF);
  header_of(m).sequence_id = 7;
  EXPECT_EQ(header_of(m).sequence_id, 7);
}

} // namespace
} // namespace tsn::gptp

#include "gptp/msg_template.hpp"

#include <cstring>

namespace tsn::gptp {

MessageTemplate::MessageTemplate(const Message& prototype) : type_(header_of(prototype).type) {
  net::Payload image;
  serialize_into(prototype, image);
  assert(image.size() <= bytes_.size() && !image.is_heap());
  std::memcpy(bytes_.data(), image.data(), image.size());
  size_ = static_cast<std::uint8_t>(image.size());
}

void MessageTemplate::put_port_identity(std::size_t off, const PortIdentity& id) {
  const auto& cid = id.clock.bytes();
  std::memcpy(bytes_.data() + off, cid.data(), cid.size());
  put_u16(off + cid.size(), id.port);
}

net::FrameRef make_ptp_frame(const MessageTemplate& tpl) {
  net::FrameRef ref = net::FramePool::local().acquire();
  net::EthernetFrame& frame = ref.writable();
  frame.dst = net::MacAddress::gptp_multicast();
  frame.ethertype = net::kEtherTypePtp;
  frame.payload.assign_image(tpl.image(), tpl.size());
  return ref;
}

} // namespace tsn::gptp

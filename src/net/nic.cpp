#include "net/nic.hpp"

#include <algorithm>

namespace tsn::net {

Nic::Nic(sim::Simulation& sim, const time::PhcModel& phc_model, MacAddress mac,
         const std::string& name)
    : sim_(sim),
      name_(name),
      mac_(mac),
      phc_(sim, phc_model, name + "/phc"),
      port_(sim, name + "/port", &phc_) {
  port_.set_sink(this);
  // gPTP peer-delay & sync messages are always accepted.
  join_multicast(MacAddress::gptp_multicast());
}

void Nic::set_rx_handler(std::uint16_t ethertype, RxHandler handler) {
  for (auto& [type, h] : rx_handlers_) {
    if (type == ethertype) {
      h = std::move(handler);
      return;
    }
  }
  rx_handlers_.emplace_back(ethertype, std::move(handler));
}

void Nic::join_multicast(MacAddress group) {
  const std::uint64_t g = group.to_u64();
  if (std::find(multicast_groups_.begin(), multicast_groups_.end(), g) == multicast_groups_.end()) {
    multicast_groups_.push_back(g);
  }
}

void Nic::send(FrameRef frame, TxOptions opts) {
  if (!up_) {
    if (opts.on_complete) opts.on_complete(TxReport{TxReport::Status::kPortDown, std::nullopt});
    return;
  }
  frame.writable().src = mac_;
  port_.transmit(std::move(frame), std::move(opts));
}

bool Nic::accepts(const EthernetFrame& frame) const {
  if (frame.dst == mac_) return true;
  if (frame.dst.is_broadcast()) return true;
  if (frame.dst.is_multicast()) {
    const std::uint64_t g = frame.dst.to_u64();
    return std::find(multicast_groups_.begin(), multicast_groups_.end(), g) !=
           multicast_groups_.end();
  }
  return false;
}

void Nic::handle_frame(Port& /*ingress*/, const FrameRef& frame, const RxMeta& meta) {
  if (!up_ || !accepts(*frame)) return;
  for (const auto& [type, handler] : rx_handlers_) {
    if (type == frame->ethertype) {
      handler(*frame, meta);
      return;
    }
  }
}

} // namespace tsn::net

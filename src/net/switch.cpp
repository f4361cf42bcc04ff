#include "net/switch.hpp"

#include <algorithm>
#include <cassert>

#include "sim/persist.hpp"
#include "util/log.hpp"
#include "util/round.hpp"
#include "util/str.hpp"

namespace tsn::net {

Switch::Switch(sim::Simulation& sim, const SwitchConfig& cfg, const std::string& name)
    : sim_(sim),
      cfg_(cfg),
      name_(name),
      phc_(sim, cfg.phc, name + "/phc"),
      residence_rng_(sim.make_rng("switch-res/" + name)) {
  ports_.reserve(cfg.port_count);
  for (std::size_t i = 0; i < cfg.port_count; ++i) {
    ports_.push_back(
        std::make_unique<Port>(sim, util::format("%s/P%zu", name.c_str(), i), &phc_));
    ports_.back()->set_sink(this);
  }
}

void Switch::add_vlan_member(std::uint16_t vid, std::size_t port_idx) {
  assert(port_idx < ports_.size());
  auto it = std::lower_bound(vlans_.begin(), vlans_.end(), vid,
                             [](const Vlan& e, std::uint16_t k) { return e.vid < k; });
  if (it == vlans_.end() || it->vid != vid) {
    it = vlans_.insert(it, Vlan{vid, std::vector<bool>(ports_.size(), false)});
  }
  it->member[port_idx] = true;
}

void Switch::add_fdb_entry(std::uint16_t vid, MacAddress mac, std::size_t port_idx) {
  assert(port_idx < ports_.size());
  const std::uint64_t key = fdb_key(vid, mac.to_u64());
  auto it = std::lower_bound(fdb_.begin(), fdb_.end(), key,
                             [](const FdbEntry& e, std::uint64_t k) { return e.key < k; });
  if (it == fdb_.end() || it->key != key) it = fdb_.insert(it, FdbEntry{key, {}});
  auto& ports = it->ports;
  const auto pos = std::lower_bound(ports.begin(), ports.end(), port_idx);
  if (pos == ports.end() || *pos != port_idx) ports.insert(pos, port_idx);
}

std::size_t Switch::index_of(const Port& p) const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].get() == &p) return i;
  }
  assert(false && "port does not belong to this switch");
  return 0;
}

void Switch::save_state(sim::StateWriter& w) {
  phc_.save_state(w);
  w.rng(residence_rng_);
}

void Switch::load_state(sim::StateReader& r) {
  phc_.load_state(r);
  r.rng(residence_rng_);
}

std::int64_t Switch::draw_residence_ns() {
  const double jitter = residence_rng_.normal(0.0, cfg_.residence_jitter_ns);
  const std::int64_t d = cfg_.residence_base_ns + util::round_i64(jitter);
  return std::max<std::int64_t>(d, cfg_.residence_base_ns / 2);
}

void Switch::forward_to(std::size_t out_idx, const FrameRef& frame) {
  const std::int64_t residence = draw_residence_ns();
  Port* out = ports_[out_idx].get();
  // Fan-out shares the buffer: one refcount bump per egress port, no copy.
  sim_.after(residence, [out, frame] {
    if (out->connected()) out->transmit(frame);
  });
}

void Switch::forward(std::size_t ingress_idx, const FrameRef& frame) {
  const std::uint16_t vid = frame->vlan ? frame->vlan->vid : 0;
  // The default VLAN (vid 0) spans all ports; any other vid reaches only
  // its member ports, and none when it was never configured.
  const std::vector<bool>* member = nullptr;
  if (vid != 0) {
    const auto v = std::lower_bound(vlans_.begin(), vlans_.end(), vid,
                                    [](const Vlan& e, std::uint16_t k) { return e.vid < k; });
    if (v == vlans_.end() || v->vid != vid) return;
    member = &v->member;
  }
  const auto egress = [&](std::size_t out_idx) {
    if (out_idx == ingress_idx || (member != nullptr && !(*member)[out_idx])) return;
    forward_to(out_idx, frame);
  };
  const std::uint64_t key = fdb_key(vid, frame->dst.to_u64());
  const auto it = std::lower_bound(fdb_.begin(), fdb_.end(), key,
                                   [](const FdbEntry& e, std::uint64_t k) { return e.key < k; });
  if (it != fdb_.end() && it->key == key) {
    for (const std::size_t out_idx : it->ports) egress(out_idx);
    return;
  }
  if (cfg_.drop_unknown_unicast) return; // strict static forwarding
  // Unknown destination: flood within the VLAN.
  for (std::size_t out_idx = 0; out_idx < ports_.size(); ++out_idx) egress(out_idx);
}

void Switch::send_from_port(std::size_t port_idx, FrameRef frame, TxOptions opts) {
  ports_.at(port_idx)->transmit(std::move(frame), std::move(opts));
}

void Switch::send_from_port(std::size_t port_idx, EthernetFrame frame, TxOptions opts) {
  send_from_port(port_idx, FramePool::local().adopt(std::move(frame)), std::move(opts));
}

void Switch::handle_frame(Port& ingress, const FrameRef& frame, const RxMeta& meta) {
  const std::size_t idx = index_of(ingress);
  if (frame->ethertype == kEtherTypePtp) {
    // A time-aware bridge terminates PTP (link-local); a PTP-unaware
    // ("dumb") switch without one just forwards the frames -- the setting
    // the plain IEEE 1588 E2E mechanism is designed for.
    if (ptp_sink_) {
      ptp_sink_(idx, *frame, meta);
      return;
    }
  }
  forward(idx, frame);
}

} // namespace tsn::net

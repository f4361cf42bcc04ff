// A host NIC with its own PTP hardware clock (models the Intel i210 the
// paper passes through to each clock synchronization VM).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/frame_pool.hpp"
#include "net/port.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"

namespace tsn::net {

class Nic : public FrameSink {
 public:
  Nic(sim::Simulation& sim, const time::PhcModel& phc_model, MacAddress mac,
      const std::string& name);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  const std::string& name() const { return name_; }
  MacAddress mac() const { return mac_; }
  time::PhcClock& phc() { return phc_; }
  Port& port() { return port_; }

  using RxHandler = std::function<void(const EthernetFrame&, const RxMeta&)>;

  /// Register a receive handler for one EtherType (replaces any previous).
  void set_rx_handler(std::uint16_t ethertype, RxHandler handler);

  /// Transmit a pooled frame with the source MAC filled in. The caller
  /// must hold the sole reference (the frame is still being produced).
  void send(FrameRef frame, TxOptions opts = {});
  /// Convenience overload: wraps the frame into the thread-local pool.
  void send(EthernetFrame frame, TxOptions opts = {}) {
    send(FramePool::local().adopt(std::move(frame)), std::move(opts));
  }

  /// Administratively bring the NIC up/down (used for VM failure: a dead VM
  /// neither sends nor acknowledges frames).
  void set_up(bool up) { up_ = up; port_.set_up(up); }
  bool is_up() const { return up_; }

  /// Subscribe to an additional multicast group address.
  void join_multicast(MacAddress group);

  void handle_frame(Port& ingress, const FrameRef& frame, const RxMeta& meta) override;

 private:
  bool accepts(const EthernetFrame& frame) const;

  sim::Simulation& sim_;
  std::string name_;
  MacAddress mac_;
  time::PhcClock phc_;
  Port port_;
  bool up_ = true;
  // A NIC serves two or three EtherTypes and groups; every received frame
  // scans these instead of walking a tree.
  std::vector<std::pair<std::uint16_t, RxHandler>> rx_handlers_;
  std::vector<std::uint64_t> multicast_groups_;
};

} // namespace tsn::net

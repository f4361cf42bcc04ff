// Network ports and the frame-delivery interface.
//
// A Port is one end of a Link. It belongs to a device (NIC or switch) that
// receives frames through the FrameSink interface. Egress supports either
// immediate transmission or an ETF ("earliest txtime first") launch-time
// queue driven by the port's PHC, modelling the Linux ETF qdisc + the Intel
// i210 LaunchTime feature the paper uses for synchronous Sync transmission.
//
// Frames travel as pooled FrameRefs: a transmit hands the port a shared
// immutable buffer, every hop downstream (link propagation, switch
// residence, fan-out) passes the 8-byte reference instead of copying the
// frame. The EthernetFrame-by-value overloads remain as a convenience shim
// (tests, cold paths) and wrap the frame into the thread-local pool.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/frame_pool.hpp"
#include "sim/simulation.hpp"
#include "tsn_time/phc_clock.hpp"
#include "util/inline_fn.hpp"

namespace tsn::net {

class Port;
class Link;

/// Receive-side metadata handed to the device with each frame.
struct RxMeta {
  /// Hardware receive timestamp in the ingress port's PHC timebase, or
  /// nullopt when the port has no PHC. PTP hardware latches the timestamp
  /// at the start-of-frame delimiter, so it excludes serialization time.
  std::optional<std::int64_t> hw_rx_ts;
  /// True (simulation) time the frame was fully received; instrumentation
  /// only, never visible to protocol logic.
  sim::SimTime true_rx_time;
};

class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void handle_frame(Port& ingress, const FrameRef& frame, const RxMeta& meta) = 0;
};

/// Outcome reported to the transmitter once the frame leaves the port (or
/// fails to). Mirrors SO_TIMESTAMPING + ETF error semantics in Linux.
struct TxReport {
  enum class Status {
    kSent,             ///< transmitted; hw_tx_ts valid if the port has a PHC
    kDeadlineMissed,   ///< ETF: launch time already passed -> dropped
    kInvalidLaunch,    ///< ETF: launch time out of acceptable window -> dropped
    kPortDown,         ///< link/port not operational
  };
  Status status = Status::kSent;
  std::optional<std::int64_t> hw_tx_ts;
};

/// Completion callbacks ride the event queue, so they use the same inline
/// no-allocation storage as event closures (move-only as a consequence).
using TxCallback = util::InlineFunction<void(const TxReport&), 48>;

struct TxOptions {
  /// ETF launch time in the port's PHC timebase; nullopt = send immediately.
  std::optional<std::int64_t> launch_time;
  /// Completion callback (tx timestamp delivery). May be empty.
  TxCallback on_complete;
};

struct EtfConfig {
  /// Launch times later than now + horizon are rejected as invalid
  /// (mirrors the qdisc's delta/horizon sanity checking).
  std::int64_t horizon_ns = 1'000'000'000;
  /// Launch times earlier than now - past_tolerance are deadline misses.
  std::int64_t past_tolerance_ns = 0;
};

class Port {
 public:
  /// `phc` may be null (e.g. a port of a switch modelled without per-port
  /// clocks shares the switch PHC passed here for each port).
  Port(sim::Simulation& sim, std::string name, time::PhcClock* phc);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  const std::string& name() const { return name_; }
  time::PhcClock* phc() const { return phc_; }

  void set_sink(FrameSink* sink) { sink_ = sink; }
  void attach_link(Link* link) { link_ = link; }
  Link* link() const { return link_; }
  bool connected() const { return link_ != nullptr; }

  /// Taking the port down flushes its ETF queue: each frame still waiting
  /// for its launch time completes at once with kPortDown.
  void set_up(bool up);
  bool is_up() const { return up_; }

  void set_etf_config(const EtfConfig& cfg) { etf_ = cfg; }

  /// Queue a frame for transmission. With a launch time, the frame leaves
  /// when the port PHC reaches it (ETF); otherwise it leaves immediately.
  void transmit(FrameRef frame, TxOptions opts = {});
  /// Convenience overload: wraps the frame into the thread-local pool.
  void transmit(EthernetFrame frame, TxOptions opts = {}) {
    transmit(FramePool::local().adopt(std::move(frame)), std::move(opts));
  }

  /// Optional traffic tap (e.g. a pcap tracer): called for every frame the
  /// port actually puts on the wire (direction=true) or fully receives
  /// (direction=false).
  using Tap = std::function<void(const EthernetFrame&, bool is_tx)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Called by the Link when a frame fully arrives at this port.
  /// `serialization_ns` is the frame's time on the wire, used to back-date
  /// the HW rx timestamp to the start-of-frame delimiter.
  void deliver(const FrameRef& frame, std::int64_t serialization_ns = 0);

 private:
  void launch_now(const FrameRef& frame, TxCallback& cb);
  void schedule_launch(FrameRef frame, std::int64_t launch_time, TxCallback cb);
  void arm_launch(std::uint32_t slot, std::int64_t remaining_phc);
  void fire_launch(std::uint32_t slot);

  // ETF frames waiting for their launch time live in a small reusable
  // slab; the scheduled event captures only (this, slot), keeping the
  // closure well inside EventFn's inline storage.
  struct PendingLaunch {
    FrameRef frame;
    std::int64_t launch_time = 0;
    TxCallback cb;
    sim::EventHandle wake; ///< the fire_launch event; pending while the slot is in use
  };

  sim::Simulation& sim_;
  std::string name_;
  time::PhcClock* phc_;
  FrameSink* sink_ = nullptr;
  Link* link_ = nullptr;
  EtfConfig etf_;
  Tap tap_;
  bool up_ = true;
  std::vector<PendingLaunch> etf_pending_;
  std::vector<std::uint32_t> etf_free_;
};

} // namespace tsn::net

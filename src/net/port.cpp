#include "net/port.hpp"

#include <utility>

#include "net/link.hpp"
#include "util/log.hpp"
#include "util/round.hpp"

namespace tsn::net {

Port::Port(sim::Simulation& sim, std::string name, time::PhcClock* phc)
    : sim_(sim), name_(std::move(name)), phc_(phc) {}

void Port::launch_now(const FrameRef& frame, TxCallback& cb) {
  if (!up_ || link_ == nullptr) {
    if (cb) cb(TxReport{TxReport::Status::kPortDown, std::nullopt});
    return;
  }
  link_->transmit_from(*this, frame);
  if (tap_) tap_(*frame, /*is_tx=*/true);
  TxReport report{TxReport::Status::kSent, std::nullopt};
  if (phc_ != nullptr) report.hw_tx_ts = phc_->hw_timestamp();
  if (cb) cb(report);
}

void Port::schedule_launch(FrameRef frame, std::int64_t launch_time, TxCallback cb) {
  std::uint32_t slot;
  if (!etf_free_.empty()) {
    slot = etf_free_.back();
    etf_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(etf_pending_.size());
    etf_pending_.emplace_back();
  }
  PendingLaunch& p = etf_pending_[slot];
  p.frame = std::move(frame);
  p.launch_time = launch_time;
  p.cb = std::move(cb);
  const std::int64_t remaining_phc = launch_time - phc_->read();
  arm_launch(slot, remaining_phc);
}

void Port::arm_launch(std::uint32_t slot, std::int64_t remaining_phc) {
  // The hardware launches when its own counter reaches launch_time, so
  // convert the remaining PHC nanoseconds to true time with the counter's
  // current rate and re-check on wake (the rate may wander in between).
  const double rate = phc_->effective_rate();
  const auto remaining_true = util::round_i64(static_cast<double>(remaining_phc) / rate);
  etf_pending_[slot].wake =
      sim_.after(std::max<std::int64_t>(remaining_true, 1), [this, slot] { fire_launch(slot); });
}

void Port::fire_launch(std::uint32_t slot) {
  PendingLaunch& p = etf_pending_[slot];
  const std::int64_t remaining_phc = p.launch_time - phc_->read();
  if (remaining_phc > 0) {
    arm_launch(slot, remaining_phc);
    return;
  }
  FrameRef frame = std::move(p.frame);
  TxCallback cb = std::move(p.cb);
  etf_free_.push_back(slot);
  launch_now(frame, cb);
}

void Port::set_up(bool up) {
  up_ = up;
  if (up) return;
  // The owner of a callback may be gone by launch time (a VM shutdown
  // destroys its gPTP stack), so a downed port reports its queued frames
  // now instead.
  const std::size_t n = etf_pending_.size();
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    PendingLaunch& p = etf_pending_[slot];
    if (!p.wake.pending()) continue;
    p.wake.cancel();
    p.frame = {};
    TxCallback cb = std::move(p.cb);
    etf_free_.push_back(slot);
    if (cb) cb(TxReport{TxReport::Status::kPortDown, std::nullopt});
  }
}

void Port::transmit(FrameRef frame, TxOptions opts) {
  if (!opts.launch_time || phc_ == nullptr) {
    launch_now(frame, opts.on_complete);
    return;
  }
  const std::int64_t now_phc = phc_->read();
  const std::int64_t lt = *opts.launch_time;
  if (lt < now_phc - etf_.past_tolerance_ns) {
    TSN_LOG_DEBUG("net", "%s: ETF deadline miss (lt=%lld phc=%lld)", name_.c_str(),
                  static_cast<long long>(lt), static_cast<long long>(now_phc));
    if (opts.on_complete) opts.on_complete(TxReport{TxReport::Status::kDeadlineMissed, std::nullopt});
    return;
  }
  if (lt > now_phc + etf_.horizon_ns) {
    if (opts.on_complete) opts.on_complete(TxReport{TxReport::Status::kInvalidLaunch, std::nullopt});
    return;
  }
  schedule_launch(std::move(frame), lt, std::move(opts.on_complete));
}

void Port::deliver(const FrameRef& frame, std::int64_t serialization_ns) {
  if (!up_ || sink_ == nullptr) return; // silently dropped, like a downed NIC
  if (tap_) tap_(*frame, /*is_tx=*/false);
  RxMeta meta;
  meta.true_rx_time = sim_.now();
  if (phc_ != nullptr) {
    // The PHY latched the timestamp when the SFD arrived, one serialization
    // time before the frame completed (drift over <1 us is sub-ns).
    meta.hw_rx_ts = phc_->hw_timestamp() - serialization_ns;
  }
  sink_->handle_frame(*this, frame, meta);
}

} // namespace tsn::net

#include "gptp/link_delay.hpp"

#include "util/log.hpp"
#include "util/round.hpp"

namespace tsn::gptp {
namespace {

Message make_req_proto(const PortIdentity& identity) {
  PdelayReqMessage req;
  req.header.type = MessageType::kPdelayReq;
  req.header.source_port = identity;
  req.header.log_message_interval = 0;
  return req;
}

Message make_resp_proto(const PortIdentity& identity) {
  PdelayRespMessage resp;
  resp.header.type = MessageType::kPdelayResp;
  resp.header.two_step = true;
  resp.header.source_port = identity;
  return resp;
}

Message make_resp_fup_proto(const PortIdentity& identity) {
  PdelayRespFollowUpMessage fup;
  fup.header.type = MessageType::kPdelayRespFollowUp;
  fup.header.source_port = identity;
  return fup;
}

} // namespace

LinkDelayService::LinkDelayService(sim::Simulation& sim, PortIdentity identity, SendFn send,
                                   const LinkDelayConfig& cfg, const std::string& name)
    : sim_(sim),
      identity_(identity),
      send_(std::move(send)),
      cfg_(cfg),
      name_(name),
      req_tpl_(make_req_proto(identity)),
      resp_tpl_(make_resp_proto(identity)),
      resp_fup_tpl_(make_resp_fup_proto(identity)) {
  nrr_ring_.resize(std::max<std::size_t>(cfg_.nrr_window, 1));
}

void LinkDelayService::start() {
  if (periodic_.active()) return;
  periodic_ = sim_.every(sim_.now(), cfg_.pdelay_interval_ns,
                         [this](sim::SimTime) { send_request(); });
}

void LinkDelayService::stop() {
  periodic_.cancel();
  exchange_open_ = false;
}

void LinkDelayService::save_state(sim::StateWriter& w) const {
  w.b(periodic_.active());
  w.i64(periodic_.next_due_ns());
  w.u16(seq_);
  w.opt_i64(t1_);
  w.opt_i64(t2_);
  w.opt_i64(t3_);
  w.opt_i64(t4_);
  w.b(exchange_open_);
  w.i64(consecutive_misses_);
  // Ring in logical (oldest-first) order so the byte image depends only on
  // the retained samples, not on where the head happens to sit.
  w.u64(nrr_count_);
  for (std::size_t i = 0; i < nrr_count_; ++i) {
    const auto& [t3, t4] = nrr_ring_[(nrr_head_ + i) % nrr_ring_.size()];
    w.i64(t3);
    w.i64(t4);
  }
  w.b(atk_turnaround_);
  w.f64(atk_t3_bias_ns_);
  w.f64(atk_t3_skew_ppm_);
  w.opt_i64(atk_t3_epoch_ns_);
  w.b(valid_);
  w.f64(mean_link_delay_ns_);
  w.f64(raw_link_delay_ns_);
  w.f64(neighbor_rate_ratio_);
  w.u64(completed_);
}

void LinkDelayService::load_state(sim::StateReader& r) {
  const bool running = r.b();
  const std::int64_t due = r.i64();
  seq_ = r.u16();
  t1_ = r.opt_i64<std::int64_t>();
  t2_ = r.opt_i64<std::int64_t>();
  t3_ = r.opt_i64<std::int64_t>();
  t4_ = r.opt_i64<std::int64_t>();
  exchange_open_ = r.b();
  consecutive_misses_ = static_cast<int>(r.i64());
  nrr_count_ = r.u64();
  nrr_head_ = 0;
  for (std::size_t i = 0; i < nrr_count_; ++i) {
    nrr_ring_[i].first = r.i64();
    nrr_ring_[i].second = r.i64();
  }
  atk_turnaround_ = r.b();
  atk_t3_bias_ns_ = r.f64();
  atk_t3_skew_ppm_ = r.f64();
  atk_t3_epoch_ns_ = r.opt_i64<std::int64_t>();
  valid_ = r.b();
  mean_link_delay_ns_ = r.f64();
  raw_link_delay_ns_ = r.f64();
  neighbor_rate_ratio_ = r.f64();
  completed_ = r.u64();
  periodic_ = {};
  if (running) {
    periodic_ = sim_.every(
        sim::SimTime{sim::align_phase(due, cfg_.pdelay_interval_ns, sim_.now().ns())},
        cfg_.pdelay_interval_ns, [this](sim::SimTime) { send_request(); });
  }
}

void LinkDelayService::ff_park() {
  parked_running_ = periodic_.active();
  park_due_ns_ = periodic_.next_due_ns();
  periodic_.cancel();
}

void LinkDelayService::ff_advance(const sim::FfWindow&) {
  // The retained (t3, t4) pairs straddle the analytic jump, which pulls
  // the VM clocks toward the ensemble in discrete steps -- a rate-ratio
  // regression across that discontinuity is garbage. Drop the history,
  // keep the estimate; two post-resume exchanges rebuild the window.
  nrr_head_ = 0;
  nrr_count_ = 0;
}

void LinkDelayService::ff_resume() {
  if (!parked_running_) return;
  parked_running_ = false;
  periodic_ = sim_.every(
      sim::SimTime{sim::align_phase(park_due_ns_, cfg_.pdelay_interval_ns, sim_.now().ns())},
      cfg_.pdelay_interval_ns, [this](sim::SimTime) { send_request(); });
}

void LinkDelayService::send_request() {
  if (exchange_open_) {
    // Previous exchange never completed (lost frame or dead neighbor).
    if (++consecutive_misses_ >= cfg_.lost_responses_allowed) {
      valid_ = false;
      nrr_head_ = 0;
      nrr_count_ = 0;
      // The ratio belongs to the dead neighbor's oscillator; keeping it
      // would poison the first meanLinkDelay computed after the neighbor
      // comes back with a different rate (the ring needs two fresh
      // exchanges before it can re-estimate).
      neighbor_rate_ratio_ = 1.0;
    }
  }
  exchange_open_ = true;
  t1_.reset();
  t2_.reset();
  t3_.reset();
  t4_.reset();

  req_tpl_.set_sequence_id(++seq_);
  send_(make_ptp_frame(req_tpl_), TxTsFn([this, seq = seq_](std::optional<std::int64_t> tx_ts) {
          if (tx_ts && seq == seq_) t1_ = *tx_ts;
        }));
}

void LinkDelayService::set_turnaround_attack(double bias_ns, double skew_ppm) {
  atk_turnaround_ = true;
  atk_t3_bias_ns_ = bias_ns;
  atk_t3_skew_ppm_ = skew_ppm;
  atk_t3_epoch_ns_.reset();
}

void LinkDelayService::clear_turnaround_attack() {
  atk_turnaround_ = false;
  atk_t3_epoch_ns_.reset();
}

std::int64_t LinkDelayService::tampered_t3(std::int64_t t3) {
  if (!atk_turnaround_) return t3;
  if (!atk_t3_epoch_ns_) atk_t3_epoch_ns_ = t3;
  const double skew =
      atk_t3_skew_ppm_ * 1e-6 * static_cast<double>(t3 - *atk_t3_epoch_ns_);
  return t3 + util::round_i64(atk_t3_bias_ns_ + skew);
}

void LinkDelayService::on_message(const Message& msg, std::int64_t rx_ts) {
  if (const auto* req = std::get_if<PdelayReqMessage>(&msg)) {
    // ---- Responder: reply with t2 then t3.
    const std::uint16_t seq = req->header.sequence_id;
    const PortIdentity requesting = req->header.source_port;
    resp_tpl_.set_sequence_id(seq);
    resp_tpl_.set_body_timestamp(Timestamp::from_ns(rx_ts));
    resp_tpl_.set_requesting_port(requesting);
    send_(make_ptp_frame(resp_tpl_),
          TxTsFn([this, seq, requesting](std::optional<std::int64_t> tx_ts) {
            if (!tx_ts) return;
            resp_fup_tpl_.set_sequence_id(seq);
            resp_fup_tpl_.set_body_timestamp(Timestamp::from_ns(tampered_t3(*tx_ts)));
            resp_fup_tpl_.set_requesting_port(requesting);
            send_(make_ptp_frame(resp_fup_tpl_), {});
          }));
    return;
  }

  if (const auto* resp = std::get_if<PdelayRespMessage>(&msg)) {
    if (!exchange_open_ || resp->requesting_port != identity_ ||
        resp->header.sequence_id != seq_) {
      return;
    }
    t4_ = rx_ts;
    t2_ = resp->request_receipt.to_ns();
    if (t1_ && t2_ && t3_ && t4_) complete_exchange();
    return;
  }

  if (const auto* fup = std::get_if<PdelayRespFollowUpMessage>(&msg)) {
    if (!exchange_open_ || fup->requesting_port != identity_ ||
        fup->header.sequence_id != seq_) {
      return;
    }
    t3_ = fup->response_origin.to_ns();
    if (t1_ && t2_ && t3_ && t4_) complete_exchange();
    return;
  }
}

void LinkDelayService::complete_exchange() {
  exchange_open_ = false;
  consecutive_misses_ = 0;

  // Neighbor rate ratio across the sample window: remote elapsed / local
  // elapsed between the oldest retained exchange and this one.
  const std::size_t window = nrr_ring_.size();
  nrr_ring_[(nrr_head_ + nrr_count_) % window] = {*t3_, *t4_};
  if (nrr_count_ < window) {
    ++nrr_count_;
  } else {
    nrr_head_ = (nrr_head_ + 1) % window; // overwrote the oldest sample
  }
  if (nrr_count_ >= 2) {
    const auto& [t3_old, t4_old] = nrr_ring_[nrr_head_];
    const double remote_elapsed = static_cast<double>(*t3_ - t3_old);
    const double local_elapsed = static_cast<double>(*t4_ - t4_old);
    if (local_elapsed > 0) neighbor_rate_ratio_ = remote_elapsed / local_elapsed;
  }

  // meanLinkDelay = ((t4-t1) - (t3-t2)/nrr) / 2, in the local timebase.
  const double turnaround = static_cast<double>(*t4_ - *t1_);
  const double remote_residence = static_cast<double>(*t3_ - *t2_) / neighbor_rate_ratio_;
  raw_link_delay_ns_ = (turnaround - remote_residence) / 2.0;

  if (!valid_) {
    mean_link_delay_ns_ = raw_link_delay_ns_;
  } else {
    mean_link_delay_ns_ += cfg_.delay_smoothing * (raw_link_delay_ns_ - mean_link_delay_ns_);
  }
  valid_ = true;
  ++completed_;
  TSN_LOG_TRACE("pdelay", "%s: D=%.1fns nrr=%.9f", name_.c_str(), mean_link_delay_ns_,
                neighbor_rate_ratio_);
}

} // namespace tsn::gptp

#include "gptp/bridge.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/str.hpp"

namespace tsn::gptp {
namespace {

Message make_relay_sync_proto() {
  SyncMessage sync;
  sync.header.type = MessageType::kSync;
  sync.header.two_step = true;
  return sync;
}

Message make_relay_fup_proto() {
  FollowUpMessage fup;
  fup.header.type = MessageType::kFollowUp;
  return fup;
}

} // namespace

TimeAwareBridge::TimeAwareBridge(sim::Simulation& sim, net::Switch& sw, const BridgeConfig& cfg,
                                 const std::string& name)
    : sim_(sim),
      sw_(sw),
      cfg_(cfg),
      name_(name),
      identity_(ClockIdentity::from_u64(util::fnv1a64("bridge/" + name))),
      mac_(net::MacAddress::from_u64(identity_.to_u64() & 0xFFFFFFFFFFFF)),
      sync_tpl_(make_relay_sync_proto()),
      fup_tpl_(make_relay_fup_proto()) {
  for (std::size_t i = 0; i < sw_.port_count(); ++i) {
    link_delay_.push_back(std::make_unique<LinkDelayService>(
        sim, port_identity(i),
        [this, i](net::FrameRef frame, LinkDelayService::TxTsFn on_tx) {
          send_on_port(i, std::move(frame), std::move(on_tx));
        },
        cfg_.link_delay, util::format("%s/P%zu/pdelay", name.c_str(), i)));
  }
  for (const auto& dc : cfg_.domains) {
    DomainState ds{dc.domain, dc.slave_port, dc.dynamic,
                   {dc.master_ports.begin(), dc.master_ports.end()}, std::nullopt};
    auto it = std::lower_bound(
        domains_.begin(), domains_.end(), dc.domain,
        [](const DomainState& d, std::uint8_t domain) { return d.domain < domain; });
    if (it != domains_.end() && it->domain == dc.domain) {
      *it = std::move(ds); // a repeated domain's last entry wins
    } else {
      domains_.insert(it, std::move(ds));
    }
  }
  sw_.set_ptp_sink([this](std::size_t idx, const net::EthernetFrame& frame,
                          const net::RxMeta& meta) { on_ptp(idx, frame, meta); });
}

PortIdentity TimeAwareBridge::port_identity(std::size_t port_idx) const {
  return PortIdentity{identity_, static_cast<std::uint16_t>(port_idx + 1)};
}

void TimeAwareBridge::send_on_port(std::size_t port_idx, net::FrameRef frame,
                                   LinkDelayService::TxTsFn on_tx) {
  frame.writable().src = mac_;
  net::TxOptions opts;
  if (on_tx) {
    opts.on_complete = [on_tx = std::move(on_tx)](const net::TxReport& r) mutable {
      on_tx(r.status == net::TxReport::Status::kSent ? r.hw_tx_ts : std::nullopt);
    };
  }
  sw_.send_from_port(port_idx, std::move(frame), std::move(opts));
}

void TimeAwareBridge::send_message_on_port(std::size_t port_idx, const Message& msg,
                                           LinkDelayService::TxTsFn on_tx) {
  net::FrameRef frame = net::FramePool::local().acquire();
  net::EthernetFrame& eth = frame.writable();
  eth.dst = net::MacAddress::gptp_multicast();
  eth.ethertype = net::kEtherTypePtp;
  serialize_into(msg, eth.payload);
  send_on_port(port_idx, std::move(frame), std::move(on_tx));
}

TimeAwareBridge::DomainState* TimeAwareBridge::find_domain(std::uint8_t domain) {
  for (DomainState& ds : domains_) {
    if (ds.domain == domain) return &ds;
  }
  return nullptr;
}

std::uint32_t TimeAwareBridge::alloc_relay_slot() {
  if (!relay_free_.empty()) {
    const std::uint32_t slot = relay_free_.back();
    relay_free_.pop_back();
    return slot;
  }
  relay_ctx_.emplace_back();
  return static_cast<std::uint32_t>(relay_ctx_.size() - 1);
}

void TimeAwareBridge::start() {
  started_ = true;
  for (auto& ld : link_delay_) {
    ld->start();
  }
}

void TimeAwareBridge::stop() {
  started_ = false;
  for (auto& ld : link_delay_) ld->stop();
  stop_sync_storm();
}

void TimeAwareBridge::set_correction_attack(std::uint8_t domain, double bias_ns) {
  atk_corr_domain_ = domain;
  atk_corr_bias_ns_ = bias_ns;
}

void TimeAwareBridge::clear_correction_attack() {
  atk_corr_domain_.reset();
  atk_corr_bias_ns_ = 0.0;
}

void TimeAwareBridge::start_sync_storm(std::uint8_t domain, std::int64_t period_ns) {
  if (storm_.active()) return;
  storm_domain_ = domain;
  storm_period_ns_ = period_ns;
  arm_storm(sim_.now().ns());
}

void TimeAwareBridge::arm_storm(std::int64_t first_ns) {
  storm_ = sim_.every(sim::SimTime{first_ns}, storm_period_ns_, [this](sim::SimTime) {
    SyncMessage sync;
    sync.header.type = MessageType::kSync;
    sync.header.two_step = false; // standalone: no FollowUp ever comes
    sync.header.domain = storm_domain_;
    sync.header.sequence_id = ++storm_seq_;
    for (std::size_t p = 0; p < sw_.port_count(); ++p) {
      if (!sw_.port(p).connected()) continue;
      sync.header.source_port = port_identity(p);
      ++counters_.storm_syncs_sent;
      send_message_on_port(p, sync, {});
    }
  });
}

void TimeAwareBridge::stop_sync_storm() { storm_.cancel(); }

void TimeAwareBridge::save_state(sim::StateWriter& w) {
  w.b(started_);
  w.u64(counters_.syncs_relayed);
  w.u64(counters_.followups_relayed);
  w.u64(counters_.announces_relayed);
  w.u64(counters_.syncs_on_non_slave_port);
  w.u64(counters_.malformed);
  w.u64(counters_.storm_syncs_sent);
  for (auto& ld : link_delay_) ld->save_state(w);
  for (const DomainState& ds : domains_) {
    w.b(ds.pending.has_value());
    const PendingSync p = ds.pending.value_or(PendingSync{});
    w.u16(p.seq);
    w.i64(p.rx_ts);
    w.i64(p.correction_scaled);
    w.u64(p.source.clock.to_u64());
    w.u16(p.source.port);
    w.u64(p.ingress_port);
  }
  w.b(atk_corr_domain_.has_value());
  w.u8(atk_corr_domain_.value_or(0));
  w.f64(atk_corr_bias_ns_);
  w.b(storm_.active());
  w.i64(storm_.next_due_ns());
  w.u16(storm_seq_);
  w.u8(storm_domain_);
  w.i64(storm_period_ns_);
}

void TimeAwareBridge::load_state(sim::StateReader& r) {
  started_ = r.b();
  counters_.syncs_relayed = r.u64();
  counters_.followups_relayed = r.u64();
  counters_.announces_relayed = r.u64();
  counters_.syncs_on_non_slave_port = r.u64();
  counters_.malformed = r.u64();
  counters_.storm_syncs_sent = r.u64();
  for (auto& ld : link_delay_) ld->load_state(r);
  for (DomainState& ds : domains_) {
    const bool has = r.b();
    PendingSync p;
    p.seq = r.u16();
    p.rx_ts = r.i64();
    p.correction_scaled = r.i64();
    p.source = PortIdentity{ClockIdentity::from_u64(r.u64()), 0};
    p.source.port = r.u16();
    p.ingress_port = r.u64();
    ds.pending.reset();
    if (has) ds.pending = p;
  }
  const bool has_corr = r.b();
  const std::uint8_t corr_domain = r.u8();
  atk_corr_domain_.reset();
  if (has_corr) atk_corr_domain_ = corr_domain;
  atk_corr_bias_ns_ = r.f64();
  const bool storm_active = r.b();
  const std::int64_t storm_due = r.i64();
  storm_seq_ = r.u16();
  storm_domain_ = r.u8();
  storm_period_ns_ = r.i64();
  storm_ = {};
  if (storm_active) {
    arm_storm(sim::align_phase(storm_due, storm_period_ns_, sim_.now().ns()));
  }
}

std::size_t TimeAwareBridge::live_events() const {
  std::size_t n = storm_.active() ? 1u : 0u;
  for (const auto& ld : link_delay_) n += ld->live_events();
  return n;
}

void TimeAwareBridge::ff_park() {
  for (auto& ld : link_delay_) ld->ff_park();
  parked_storm_ = storm_.active();
  park_storm_due_ns_ = storm_.next_due_ns();
  storm_.cancel();
}

void TimeAwareBridge::ff_advance(const sim::FfWindow& w) {
  for (auto& ld : link_delay_) ld->ff_advance(w);
  // A Sync whose FollowUp has not arrived by a multi-second quiescent
  // window is an abandoned relay; its seq is long gone after the jump.
  for (DomainState& ds : domains_) ds.pending.reset();
}

void TimeAwareBridge::ff_resume() {
  for (auto& ld : link_delay_) ld->ff_resume();
  if (parked_storm_) {
    parked_storm_ = false;
    arm_storm(sim::align_phase(park_storm_due_ns_, storm_period_ns_, sim_.now().ns()));
  }
}

void TimeAwareBridge::on_ptp(std::size_t port_idx, const net::EthernetFrame& frame,
                             const net::RxMeta& meta) {
  if (!started_) return;
  const auto msg = parse(frame.payload);
  if (!msg) {
    ++counters_.malformed;
    return;
  }
  const std::int64_t rx_ts = meta.hw_rx_ts.value_or(0);
  const auto& header = header_of(*msg);

  if (header.type == MessageType::kPdelayReq || header.type == MessageType::kPdelayResp ||
      header.type == MessageType::kPdelayRespFollowUp) {
    link_delay_[port_idx]->on_message(*msg, rx_ts);
    return;
  }

  DomainState* found = find_domain(header.domain);
  if (found == nullptr) return; // domain not configured here
  DomainState& ds = *found;

  if (const auto* sync = std::get_if<SyncMessage>(&*msg)) {
    if (!ds.dynamic && port_idx != ds.slave_port) {
      ++counters_.syncs_on_non_slave_port; // passive port: ignore
      return;
    }
    ds.pending = PendingSync{sync->header.sequence_id, rx_ts, sync->header.correction_scaled,
                             sync->header.source_port, port_idx};
    return;
  }

  if (const auto* fup = std::get_if<FollowUpMessage>(&*msg)) {
    if (!ds.dynamic && port_idx != ds.slave_port) return;
    if (!ds.pending || ds.pending->seq != fup->header.sequence_id ||
        ds.pending->source != fup->header.source_port ||
        ds.pending->ingress_port != port_idx) {
      return;
    }
    relay_follow_up(ds, *fup);
    return;
  }

  if (const auto* ann = std::get_if<AnnounceMessage>(&*msg)) {
    if (ds.dynamic) relay_announce(ds, port_idx, *ann);
    return; // with external port configuration announces are not relayed
  }
}

void TimeAwareBridge::relay_announce(DomainState& ds, std::size_t ingress,
                                     const AnnounceMessage& msg) {
  // Loop prevention: never relay an announce that already traversed us.
  for (const auto& hop : msg.path_trace) {
    if (hop == identity_) return;
  }
  AnnounceMessage out = msg;
  out.steps_removed = static_cast<std::uint16_t>(out.steps_removed + 1);
  out.path_trace.push_back(identity_);
  for (std::size_t p = 0; p < sw_.port_count(); ++p) {
    if (p == ingress || !sw_.port(p).connected()) continue;
    out.header.source_port = port_identity(p);
    ++counters_.announces_relayed;
    send_message_on_port(p, out, {});
  }
  (void)ds;
}

void TimeAwareBridge::relay_follow_up(DomainState& ds, const FollowUpMessage& fup) {
  const PendingSync pending = *ds.pending;
  ds.pending.reset();

  LinkDelayService& ingress_ld = *link_delay_[pending.ingress_port];
  if (!ingress_ld.valid()) return; // upstream link delay not yet measured

  // Cumulative rate ratio from the GM to this bridge's clock.
  const double rate_ratio = fup.rate_ratio() * ingress_ld.neighbor_rate_ratio();
  const double upstream_delay_ns = ingress_ld.mean_link_delay_ns();

  // Egress in ascending port order; this runs for every relayed FollowUp.
  const auto relay_on = [&](std::size_t out_port) {
    sync_tpl_.set_domain(ds.domain);
    sync_tpl_.set_source_port(port_identity(out_port));
    sync_tpl_.set_sequence_id(pending.seq);
    sync_tpl_.set_log_message_interval(fup.header.log_message_interval);

    const std::uint32_t slot = alloc_relay_slot();
    RelayCtx& ctx = relay_ctx_[slot];
    ctx.domain = ds.domain;
    ctx.log_interval = fup.header.log_message_interval;
    ctx.seq = pending.seq;
    ctx.out_port = out_port;
    ctx.rx_ts = pending.rx_ts;
    ctx.base_correction = pending.correction_scaled + fup.header.correction_scaled;
    ctx.precise_origin = fup.precise_origin;
    ctx.gm_time_base_indicator = fup.gm_time_base_indicator;
    ctx.freq_change = fup.scaled_last_gm_freq_change;
    ctx.rate_ratio = rate_ratio;
    ctx.upstream_delay_ns = upstream_delay_ns;

    ++counters_.syncs_relayed;
    send_on_port(out_port, make_ptp_frame(sync_tpl_),
                 LinkDelayService::TxTsFn([this, slot](std::optional<std::int64_t> tx_ts) {
                   finish_relay(slot, tx_ts);
                 }));
  };
  if (ds.dynamic) {
    for (std::size_t p = 0; p < sw_.port_count(); ++p) {
      if (p != pending.ingress_port && sw_.port(p).connected()) relay_on(p);
    }
  } else {
    for (const std::size_t out_port : ds.master_ports) relay_on(out_port);
  }
}

void TimeAwareBridge::finish_relay(std::uint32_t slot, std::optional<std::int64_t> tx_ts) {
  const RelayCtx ctx = relay_ctx_[slot];
  relay_free_.push_back(slot);
  if (!tx_ts || !started_) return;
  // Residence time in the bridge's local clock, plus the upstream link
  // delay, both converted to GM time.
  const double residence_ns = static_cast<double>(*tx_ts - ctx.rx_ts);
  double added_ns = ctx.rate_ratio * (residence_ns + ctx.upstream_delay_ns);
  // Compromised-bridge correction tamper: the FollowUp claims more (or
  // less) residence than actually elapsed for the attacked domain.
  if (atk_corr_domain_ && *atk_corr_domain_ == ctx.domain) added_ns += atk_corr_bias_ns_;

  fup_tpl_.set_domain(ctx.domain);
  fup_tpl_.set_source_port(port_identity(ctx.out_port));
  fup_tpl_.set_sequence_id(ctx.seq);
  fup_tpl_.set_log_message_interval(ctx.log_interval);
  fup_tpl_.set_correction_scaled(ctx.base_correction + scaled_ns::from_ns(added_ns));
  fup_tpl_.set_body_timestamp(ctx.precise_origin);
  fup_tpl_.set_cumulative_scaled_rate_offset(rate_offset::from_ratio(ctx.rate_ratio));
  fup_tpl_.set_gm_time_base_indicator(ctx.gm_time_base_indicator);
  fup_tpl_.set_scaled_last_gm_freq_change(ctx.freq_change);
  ++counters_.followups_relayed;
  send_on_port(ctx.out_port, make_ptp_frame(fup_tpl_), {});
}

} // namespace tsn::gptp

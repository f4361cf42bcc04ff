// IEEE 802.1AS time-aware bridge.
//
// Attached to a net::Switch, it terminates gPTP on every port: it runs the
// peer-delay mechanism per port and, per domain, relays Sync/FollowUp from
// the domain's slave port to its master ports, accumulating the residence
// time and upstream link delay into the correction field (scaled by the
// cumulative rate ratio) exactly as 802.1AS clause 11 prescribes. The
// bridge's own PHC free-runs; it never syntonizes, it only measures.
//
// Port roles are statically assigned (external port configuration, as in
// the paper's testbed: "no best master clock algorithm").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gptp/link_delay.hpp"
#include "gptp/messages.hpp"
#include "gptp/msg_template.hpp"
#include "net/switch.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"

namespace tsn::gptp {

struct BridgeDomainConfig {
  std::uint8_t domain = 0;
  std::size_t slave_port = 0;
  std::set<std::size_t> master_ports;
  // Ports not listed are passive for this domain.

  /// Dynamic mode (hot-standby grandmasters via BMCA): ignore the static
  /// roles above; relay Announce messages to every other port (stepsRemoved
  /// incremented, own identity appended to the path trace) and relay
  /// Sync/FollowUp from whichever port they arrive on to all others.
  /// Requires a physically loop-free topology for this domain.
  bool dynamic = false;
};

struct BridgeConfig {
  LinkDelayConfig link_delay;
  std::vector<BridgeDomainConfig> domains;
};

struct BridgeCounters {
  std::uint64_t syncs_relayed = 0;
  std::uint64_t followups_relayed = 0;
  std::uint64_t announces_relayed = 0;
  std::uint64_t syncs_on_non_slave_port = 0;
  std::uint64_t malformed = 0;
  std::uint64_t storm_syncs_sent = 0; ///< bogus Syncs injected by a compromise
};

class TimeAwareBridge : public sim::Persistent {
 public:
  TimeAwareBridge(sim::Simulation& sim, net::Switch& sw, const BridgeConfig& cfg,
                  const std::string& name);

  TimeAwareBridge(const TimeAwareBridge&) = delete;
  TimeAwareBridge& operator=(const TimeAwareBridge&) = delete;

  void start();
  void stop();

  LinkDelayService& port_link_delay(std::size_t port_idx) { return *link_delay_.at(port_idx); }
  const BridgeCounters& counters() const { return counters_; }
  net::Switch& bridge_switch() { return sw_; }

  // -- Compromised-bridge attack hooks (src/attack) -------------------------

  /// Inflate the correction field of every Sync relayed for `domain` by
  /// `bias_ns` (added on top of the honest residence + upstream-delay
  /// accumulation in finish_relay). Downstream slaves of that domain see
  /// its offset shifted by the bias.
  void set_correction_attack(std::uint8_t domain, double bias_ns);
  void clear_correction_attack();

  /// Sync-storm DoS: flood standalone Sync messages for `domain`
  /// (typically one no VM or bridge has configured, so every receiver
  /// drops them after parsing) out of every connected port, one volley
  /// per `period_ns`. Pure protocol-processing load.
  void start_sync_storm(std::uint8_t domain, std::int64_t period_ns);
  void stop_sync_storm();

  /// True while an adversarial relay corruption or sync storm is armed
  /// (a fast-forward barrier: a compromised bridge stays event-simulated).
  bool attack_armed() const { return atk_corr_domain_.has_value() || storm_.active(); }

  // -- sim::Persistent ------------------------------------------------------
  const char* persist_name() const override { return name_.c_str(); }
  void save_state(sim::StateWriter& w) override;
  void load_state(sim::StateReader& r) override;
  std::size_t live_events() const override;
  void ff_park() override;
  void ff_advance(const sim::FfWindow& w) override;
  void ff_resume() override;

 private:
  struct PendingSync {
    std::uint16_t seq = 0;
    std::int64_t rx_ts = 0; // switch PHC at ingress
    std::int64_t correction_scaled = 0;
    PortIdentity source;
    std::size_t ingress_port = 0;
  };
  struct DomainState {
    std::uint8_t domain = 0;
    std::size_t slave_port = 0;
    bool dynamic = false;
    std::vector<std::size_t> master_ports; ///< ascending
    std::optional<PendingSync> pending;
  };

  // State of one in-flight Sync relay waiting for its egress timestamp.
  // Kept in a reusable slab so the tx callback captures only (this, slot)
  // and stays inside the inline callback storage.
  struct RelayCtx {
    std::uint8_t domain = 0;
    std::int8_t log_interval = 0;
    std::uint16_t seq = 0;
    std::size_t out_port = 0;
    std::int64_t rx_ts = 0;
    std::int64_t base_correction = 0; // upstream Sync + FollowUp corrections
    Timestamp precise_origin;
    std::uint16_t gm_time_base_indicator = 0;
    std::int32_t freq_change = 0;
    double rate_ratio = 1.0;
    double upstream_delay_ns = 0.0;
  };

  void on_ptp(std::size_t port_idx, const net::EthernetFrame& frame, const net::RxMeta& meta);
  void relay_follow_up(DomainState& ds, const FollowUpMessage& fup);
  void finish_relay(std::uint32_t slot, std::optional<std::int64_t> tx_ts);
  void relay_announce(DomainState& ds, std::size_t ingress, const AnnounceMessage& msg);
  /// Hot path: transmit a pooled frame (the bridge's source MAC filled in).
  void send_on_port(std::size_t port_idx, net::FrameRef frame, LinkDelayService::TxTsFn on_tx);
  /// Cold path (Announce relay): serialize into a pooled frame first.
  void send_message_on_port(std::size_t port_idx, const Message& msg,
                            LinkDelayService::TxTsFn on_tx);
  std::uint32_t alloc_relay_slot();
  /// The configured domain's state, or null.
  DomainState* find_domain(std::uint8_t domain);
  PortIdentity port_identity(std::size_t port_idx) const;
  /// (Re-)create the storm periodic from storm_domain_/storm_period_ns_.
  void arm_storm(std::int64_t first_ns);

  sim::Simulation& sim_;
  net::Switch& sw_;
  BridgeConfig cfg_;
  std::string name_;
  ClockIdentity identity_;
  net::MacAddress mac_; ///< source MAC of every frame the bridge sends
  std::vector<std::unique_ptr<LinkDelayService>> link_delay_; // one per port
  /// Configured domains in ascending order (the snapshot order). Each
  /// received Sync/FollowUp scans these few entries.
  std::vector<DomainState> domains_;
  BridgeCounters counters_;
  bool started_ = false;

  // Attack state (inert unless src/attack arms it).
  std::optional<std::uint8_t> atk_corr_domain_;
  double atk_corr_bias_ns_ = 0.0;
  sim::Simulation::PeriodicHandle storm_;
  std::uint16_t storm_seq_ = 0;
  std::uint8_t storm_domain_ = 0;      ///< remembered for re-arming
  std::int64_t storm_period_ns_ = 0;   ///< 0 = storm never armed

  // Fast-forward park state.
  bool parked_storm_ = false;
  std::int64_t park_storm_due_ns_ = 0;

  // Pre-built relay PDU images; every varying field (domain, egress port
  // identity, seq, correction, timestamps, TLV) is patched per transmission.
  MessageTemplate sync_tpl_;
  MessageTemplate fup_tpl_;
  std::vector<RelayCtx> relay_ctx_;
  std::vector<std::uint32_t> relay_free_;
};

} // namespace tsn::gptp

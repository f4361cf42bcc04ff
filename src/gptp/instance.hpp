// A "ptp4l instance": one IEEE 802.1AS domain on one NIC.
//
// As grandmaster (master role) it transmits two-step Sync/FollowUp pairs,
// optionally ETF launch-time aligned to sync-interval boundaries of its PHC
// so that the grandmasters of all domains transmit quasi-simultaneously
// (paper section II-B). As slave it computes the master offset
//     offset = t_rx - (preciseOriginTimestamp + correction + rateRatio * D)
// and hands it to the registered offset callback -- in the paper's
// architecture that callback stores the offset into FTSHMEM for FTA
// aggregation (core module). Without a callback an optional local PI servo
// disciplines the NIC PHC directly (classic single-domain ptp4l).
#pragma once

#include <cstdint>
#include <functional>
#include <cmath>
#include <optional>
#include <string>

#include "gptp/bmca.hpp"
#include "gptp/link_delay.hpp"
#include "gptp/messages.hpp"
#include "gptp/msg_template.hpp"
#include "gptp/servo.hpp"
#include "net/nic.hpp"
#include "sim/simulation.hpp"

namespace tsn::gptp {

/// Path-delay mechanism. 802.1AS mandates peer-to-peer (the default); the
/// end-to-end mechanism of plain IEEE 1588 is provided as a baseline for
/// networks of PTP-unaware switches.
enum class DelayMechanism { kP2P, kE2E };

struct InstanceConfig {
  std::uint8_t domain = 0;
  /// Static role (external port configuration). Ignored when use_bmca.
  PortRole role = PortRole::kSlave;
  std::int64_t sync_interval_ns = 125'000'000; // S = 125 ms (paper)
  /// Align Sync launch to multiples of the sync interval via ETF.
  bool align_launch = true;
  /// How long before the launch boundary the Sync is prepared/enqueued.
  std::int64_t launch_guard_ns = 2'000'000;
  /// Declare the GM lost after this many silent sync intervals.
  int sync_receipt_timeout_intervals = 3;
  /// Dynamic master selection via announce messages instead of static roles.
  bool use_bmca = false;
  DelayMechanism delay_mechanism = DelayMechanism::kP2P;
  std::int64_t delay_req_interval_ns = 1'000'000'000;
  std::int64_t announce_interval_ns = 1'000'000'000;
  std::uint8_t priority1 = 246;
  std::uint8_t priority2 = 248;
  ClockQuality quality;
};

/// One computed master offset (the value ptp4l stores into FTSHMEM).
struct MasterOffsetSample {
  std::uint8_t domain = 0;
  double offset_ns = 0.0; ///< local PHC minus grandmaster time
  std::int64_t local_rx_ts = 0;
  Timestamp precise_origin;
  double rate_ratio = 1.0; ///< grandmaster frequency / local frequency
  std::uint16_t sequence_id = 0;
};

/// Transient software-stack fault injection (paper section III-C observed
/// tx-timestamp timeouts and launch deadline misses in the igb driver).
struct InstanceFaultModel {
  double p_tx_timestamp_timeout = 0.0;
  double p_late_launch = 0.0;
  std::int64_t late_launch_delay_ns = 5'000'000;
};

struct InstanceCounters {
  std::uint64_t syncs_sent = 0;
  std::uint64_t followups_sent = 0;
  std::uint64_t syncs_received = 0;
  std::uint64_t offsets_computed = 0;
  std::uint64_t tx_timestamp_timeouts = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t sync_receipt_timeouts = 0;
  std::uint64_t malformed_messages = 0;
  std::uint64_t delay_reqs_answered = 0;
  std::uint64_t delay_resps_received = 0;
};

class PtpInstance {
 public:
  PtpInstance(sim::Simulation& sim, net::Nic& nic, LinkDelayService& link_delay,
              const InstanceConfig& cfg, const std::string& name);

  PtpInstance(const PtpInstance&) = delete;
  PtpInstance& operator=(const PtpInstance&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  /// Feed a Sync/FollowUp/Announce for this instance's domain.
  void handle_message(const Message& msg, std::int64_t rx_ts);

  using OffsetCallback = std::function<void(const MasterOffsetSample&)>;
  void set_offset_callback(OffsetCallback cb) { offset_cb_ = std::move(cb); }

  /// Standalone mode: discipline the NIC PHC with an internal PI servo.
  void enable_local_servo(const PiServoConfig& cfg);

  /// Attack model: shift transmitted preciseOriginTimestamps (a compromised
  /// GM distributing faulty time; the paper uses -24 us).
  void set_malicious_pot_offset(std::int64_t ns) { malicious_pot_offset_ns_ = ns; }
  bool is_malicious() const { return malicious_pot_offset_ns_ != 0; }

  void set_fault_model(const InstanceFaultModel& m) { fault_model_ = m; }

  /// Invoked on each transient application fault ("tx_timeout",
  /// "deadline_miss", "sync_receipt_timeout").
  using FaultCallback = std::function<void(const std::string& kind)>;
  void set_fault_callback(FaultCallback cb) { fault_cb_ = std::move(cb); }

  // -- Snapshot / fast-forward support (driven by the owning stack; see
  //    sim/persist.hpp for the contract) -----------------------------------
  void save_state(sim::StateWriter& w);
  void load_state(sim::StateReader& r);
  std::size_t live_events() const;
  void ff_park();
  void ff_advance(const sim::FfWindow& w);
  void ff_resume();

  const InstanceConfig& config() const { return cfg_; }
  const InstanceCounters& counters() const { return counters_; }
  PortRole role() const { return role_; }
  ClockIdentity clock_identity() const { return identity_.clock; }
  const std::string& name() const { return name_; }
  /// True while Syncs from the GM arrive within the receipt timeout.
  bool gm_receiving() const { return gm_receiving_; }
  /// E2E mode: the current mean path delay estimate (ns), NaN before the
  /// first completed DelayReq/DelayResp exchange.
  double e2e_path_delay_ns() const { return e2e_delay_ns_; }

 private:
  void schedule_next_sync_tx();
  /// Re-create the pending sync-chain hop at exactly `due_ns` (snapshot
  /// restore): popping it re-enters schedule_at_phc just like the
  /// original in-queue hop closure would, so PHC read times -- and with
  /// them the oscillator integration segmentation -- are reproduced
  /// bit-exactly.
  void arm_sync_hop_at(std::int64_t due_ns);
  void prepare_sync_tx(std::int64_t launch_phc);
  void transmit_sync(std::int64_t launch_phc);
  void on_sync(const SyncMessage& msg, std::int64_t rx_ts);
  void on_follow_up(const FollowUpMessage& msg);
  void on_delay_req(const DelayReqMessage& msg, std::int64_t rx_ts);
  void on_delay_resp(const DelayRespMessage& msg);
  void send_delay_req();
  void on_announce_msg(const AnnounceMessage& msg);
  void deliver_offset(const MasterOffsetSample& sample);
  void check_sync_receipt(sim::SimTime now);
  void schedule_at_phc(std::int64_t target_phc, std::function<void()> fn);
  /// Cold path (Announce): serialize the message into a pooled frame.
  void send_message(const Message& msg, std::optional<std::int64_t> launch_time,
                    net::TxCallback on_complete);
  /// Hot path (Sync/FollowUp/DelayReq/DelayResp): copy the pre-built,
  /// freshly patched template image into a pooled frame.
  void send_template(const MessageTemplate& tpl, std::optional<std::int64_t> launch_time,
                     net::TxCallback on_complete);
  void send_announce();
  void evaluate_bmca();
  void fault(const std::string& kind);

  sim::Simulation& sim_;
  net::Nic& nic_;
  LinkDelayService& link_delay_;
  InstanceConfig cfg_;
  std::string name_;
  PortIdentity identity_;
  PortRole role_;
  bool running_ = false;

  // Master state.
  std::uint16_t sync_seq_ = 0;
  std::int64_t next_boundary_phc_ = 0;
  std::int64_t hop_due_ns_ = -1; ///< sim-time due of the pending chain hop
  // The pending chain hop and late-launch retry. stop() cancels both: the
  // owner may destroy a stopped instance (a VM shutdown drops its stack),
  // so no queued closure may still point at it.
  sim::EventHandle hop_;
  sim::EventHandle late_launch_;
  util::RngStream fault_rng_;
  InstanceFaultModel fault_model_;

  // Pre-built PDU images (fixed fields serialized once at construction;
  // only seq/timestamps/requesting port are patched per transmission).
  MessageTemplate sync_tpl_;
  MessageTemplate fup_tpl_;
  MessageTemplate delay_req_tpl_;
  MessageTemplate delay_resp_tpl_;

  // Slave state.
  struct PendingSync {
    std::uint16_t seq = 0;
    std::int64_t rx_ts = 0;
    std::int64_t correction_scaled = 0;
    PortIdentity source;
  };
  std::optional<PendingSync> pending_sync_;
  std::int64_t last_sync_rx_sim_ns_ = -1;
  // E2E state: last (t1 = GM origin, t2 = local rx) pair and the delay
  // request in flight (t3 = local tx of the DelayReq).
  std::optional<std::pair<double, std::int64_t>> e2e_last_sync_;
  std::uint16_t delay_req_seq_ = 0;
  std::optional<std::int64_t> e2e_t3_;
  double e2e_delay_ns_ = std::nan("");
  sim::Simulation::PeriodicHandle delay_req_timer_;
  bool gm_receiving_ = false;
  sim::Simulation::PeriodicHandle sync_check_;

  // BMCA state.
  std::optional<BmcaEngine> bmca_;
  sim::Simulation::PeriodicHandle announce_tx_;
  sim::Simulation::PeriodicHandle bmca_eval_;
  std::uint16_t announce_seq_ = 0;

  // Phases remembered across ff_park()/ff_resume().
  struct ParkedPeriodic {
    bool running = false;
    std::int64_t due_ns = 0;
  };
  ParkedPeriodic park_sync_check_, park_delay_req_, park_announce_, park_bmca_;

  OffsetCallback offset_cb_;
  std::optional<PiServo> local_servo_;
  std::int64_t malicious_pot_offset_ns_ = 0;
  FaultCallback fault_cb_;
  InstanceCounters counters_;
  std::uint64_t epoch_ = 0; // bumped on stop() to invalidate in-flight work
};

} // namespace tsn::gptp

// Point-to-point full-duplex link with per-direction delay models.
//
// Per-direction asymmetry is what produces the paper's reading error
// E = dmax - dmin and measurement error gamma; the jitter term models PHY
// and cable-length variation.
//
// A link may also span a partition boundary (make_boundary): each end
// then lives in its own region Simulation and delivery crosses via the
// PartitionRuntime's mailbox channels instead of a local event. The link
// propagation floor (base/2 plus the empty-frame serialization time) is
// the channel's conservative lookahead, and the RNG splits into one
// stream per direction so each is only ever touched by its sender's
// region.
#pragma once

#include <cstdint>
#include <optional>

#include "net/frame.hpp"
#include "net/frame_pool.hpp"
#include "sim/partition.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace tsn::net {

class Port;

struct DelayModel {
  /// Fixed propagation + PHY latency, ns.
  std::int64_t base_ns = 500;
  /// Gaussian jitter stddev, ns (truncated so delay stays >= base/2).
  double jitter_sigma_ns = 10.0;
};

struct LinkConfig {
  /// Delay for frames travelling from end A to end B and vice versa; the
  /// two directions may be configured asymmetrically.
  DelayModel a_to_b;
  DelayModel b_to_a;
  /// Line rate for serialization delay.
  double rate_bps = 1e9;
};

class Link : public sim::Persistent {
 public:
  Link(sim::Simulation& sim, Port& end_a, Port& end_b, const LinkConfig& cfg,
       const std::string& name);

  /// A link whose ends live in different regions of a partitioned run.
  /// Delivery crosses the runtime's channels; frames are copied by value
  /// at the boundary and re-adopted into the destination region's pool
  /// (FrameRefs must never cross regions).
  static std::unique_ptr<Link> make_boundary(sim::PartitionRuntime& rt,
                                             std::size_t region_a, Port& end_a,
                                             std::size_t region_b, Port& end_b,
                                             const LinkConfig& cfg,
                                             const std::string& name);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Called by a Port: propagate `frame` to the opposite end. `from` must be
  /// one of the two endpoints. The frame is shared, not copied: delivery
  /// captures a FrameRef (boundary links copy instead, see make_boundary).
  void transmit_from(Port& from, const FrameRef& frame);

  Port& peer_of(Port& end) const;

  /// Serialization time of `frame` at the line rate, ns.
  std::int64_t serialization_ns(const EthernetFrame& frame) const;

  /// One random end-to-end delay draw (serialization excluded) for the given
  /// direction; used both for delivery and by tests.
  std::int64_t draw_delay(bool from_a);

  /// Adversarial asymmetric path-delay injection (attack library): add
  /// `bias_ns` plus `ramp_ns_per_s * elapsed` to every subsequent draw in
  /// one direction. Only positive totals are meaningful -- the draw is
  /// still clamped at the model floor base/2, so the boundary channel's
  /// lookahead contract survives any attack magnitude. Must be called
  /// from the sender region (it reads that region's clock).
  void set_delay_attack(bool from_a, std::int64_t bias_ns, double ramp_ns_per_s);
  void clear_delay_attack(bool from_a);

  /// Conservative lower bound on any delivery delay in the given direction
  /// (the boundary channel's lookahead): the delay-model floor base/2 plus
  /// the serialization time of an empty frame.
  std::int64_t min_delay_ns(bool from_a) const;

  bool is_boundary() const { return rt_ != nullptr; }
  const LinkConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }

  /// True when either direction currently has an adversarial delay armed
  /// (a fast-forward barrier: attacked paths must stay event-simulated).
  bool attack_armed() const { return atk_ab_.active || atk_ba_.active; }

  // -- sim::Persistent: delay RNG streams + armed attack state. In-flight
  // deliveries are queue transients excluded by the quiescence gate; no
  // standing events, so the ff hooks keep their no-op defaults.
  const char* persist_name() const override { return name_.c_str(); }
  void save_state(sim::StateWriter& w) override;
  void load_state(sim::StateReader& r) override;

 private:
  Link(sim::PartitionRuntime& rt, std::size_t region_a, Port& end_a,
       std::size_t region_b, Port& end_b, const LinkConfig& cfg,
       const std::string& name);

  struct DelayAttack {
    bool active = false;
    std::int64_t bias_ns = 0;
    double ramp_ns_per_s = 0.0;
    std::int64_t start_ns = 0; ///< sender-region time at activation
  };
  sim::Simulation& sender_sim(bool from_a);

  sim::Simulation& sim_; ///< end A's Simulation (the only one, if local)
  sim::Simulation* sim_b_ = nullptr; ///< end B's Simulation (boundary only)
  Port& a_;
  Port& b_;
  LinkConfig cfg_;
  std::string name_;
  util::NormalStream rng_;               ///< legacy shared stream (local links)
  sim::PartitionRuntime* rt_ = nullptr;  ///< non-null for boundary links
  std::optional<util::NormalStream> rng_ba_; ///< boundary: B->A direction stream
  std::uint32_t ch_ab_ = 0, ch_ba_ = 0;
  DelayAttack atk_ab_, atk_ba_; ///< per-direction adversarial delay
};

} // namespace tsn::net

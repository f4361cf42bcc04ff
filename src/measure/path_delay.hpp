// Path delay metering: the offline calibration step of paper section
// III-A3. The authors measured the network latency between all node pairs
// (via ptp4l data) to derive the reading error E = dmax - dmin and the
// measurement error gamma from the measurement VM's paths.
//
// We reproduce it with instrumented probe frames that carry their true
// transmission time: the receiver side computes the true one-way transit
// time. This is measurement infrastructure (run before/alongside the
// experiment), not part of the synchronized system itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/nic.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "util/stats.hpp"

namespace tsn::measure {

inline constexpr std::uint16_t kEtherTypePathProbe = 0x88B6;

class PathDelayMeter {
 public:
  PathDelayMeter(sim::Simulation& sim, std::uint16_t vlan_id, const std::string& name);

  /// Partitioned mode: sweeps are coordinated from `home_region` (the
  /// constructor's Simulation must be that region's). Send commands fan
  /// out to each node's region over control channels (+2 ms), nodes stamp
  /// their own region clock, and receivers forward (src, dst, delay)
  /// samples back home (+1 ms). Call before any add_node().
  void set_partitioned(sim::PartitionRuntime* rt, std::size_t home_region);

  /// Register a node endpoint under a unique name. All pairwise one-way
  /// delays between registered nodes are measured. `node_sim`/`region`
  /// locate the node in a partitioned world (serial callers leave the
  /// defaults).
  void add_node(const std::string& name, net::Nic* nic,
                sim::Simulation* node_sim = nullptr, std::size_t region = 0);

  /// Launch `rounds` probe sweeps spaced `spacing_ns` apart, starting now.
  /// `on_done` fires after the last sweep's results are in.
  void run(int rounds, std::int64_t spacing_ns, std::function<void()> on_done = {});

  struct PairStats {
    util::RunningStats delay_ns;
  };

  /// Per ordered pair (src, dst) one-way delay statistics, for every pair
  /// with at least one sample. Built on each call from the dense table.
  std::map<std::pair<std::string, std::string>, PairStats> pairs() const;

  /// Minimum / maximum observed latency over all node pairs -> E.
  double dmin_ns() const;
  double dmax_ns() const;
  double reading_error_ns() const { return dmax_ns() - dmin_ns(); }

  /// Measurement error gamma (paper eq. 3.2) for the path set from
  /// `measurement_node` to `destinations`: max over those paths of the
  /// maximum delay minus min over those paths of the minimum delay.
  double gamma_ns(const std::string& measurement_node,
                  const std::vector<std::string>& destinations) const;

  std::uint64_t probes_received() const { return probes_received_; }

 private:
  void sweep();
  void send_from(std::uint32_t src_idx);
  void on_probe(std::uint32_t dst_idx, const net::EthernetFrame& frame,
                const net::RxMeta& meta);
  void record(std::uint32_t src_idx, std::uint32_t dst_idx, double delay_ns);
  /// Index of the node named `name`, or nodes_.size() when there is none.
  std::size_t index_of(const std::string& name) const;
  const PairStats& stats(std::size_t src_idx, std::size_t dst_idx) const {
    return stats_[src_idx * nodes_.size() + dst_idx];
  }

  sim::Simulation& sim_;
  std::uint16_t vlan_id_;
  std::string name_;
  struct Node {
    std::string name;
    net::Nic* nic;
    sim::Simulation* sim = nullptr; ///< node's region sim (partitioned)
    std::size_t region = 0;
  };
  std::vector<Node> nodes_;
  sim::PartitionRuntime* rt_ = nullptr;
  std::size_t home_region_ = 0;
  /// Delay statistics of every ordered pair, [src * nodes_.size() + dst];
  /// a pair never sampled has count() == 0.
  std::vector<PairStats> stats_;
  std::uint64_t probes_received_ = 0;
  int rounds_left_ = 0;
  std::int64_t spacing_ns_ = 0;
  std::function<void()> on_done_;
};

} // namespace tsn::measure

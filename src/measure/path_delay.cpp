#include "measure/path_delay.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "gptp/wire.hpp"

namespace tsn::measure {

PathDelayMeter::PathDelayMeter(sim::Simulation& sim, std::uint16_t vlan_id,
                               const std::string& name)
    : sim_(sim), vlan_id_(vlan_id), name_(name) {}

void PathDelayMeter::set_partitioned(sim::PartitionRuntime* rt, std::size_t home_region) {
  assert(nodes_.empty()); // channels are set up per node
  rt_ = rt;
  home_region_ = home_region;
}

void PathDelayMeter::add_node(const std::string& node_name, net::Nic* nic,
                              sim::Simulation* node_sim, std::size_t region) {
  if (rt_ != nullptr && region != home_region_) {
    // Deterministic channel ids: create both directions at build time.
    rt_->control_channel(home_region_, region); // send commands out
    rt_->control_channel(region, home_region_); // samples back home
  }
  assert(index_of(node_name) == nodes_.size());
  const std::uint32_t dst_idx = static_cast<std::uint32_t>(nodes_.size());
  // Re-lay the pair table out for one more node (set-up only).
  const std::size_t n = nodes_.size() + 1;
  std::vector<PairStats> grown(n * n);
  for (std::size_t src = 0; src + 1 < n; ++src) {
    for (std::size_t dst = 0; dst + 1 < n; ++dst) grown[src * n + dst] = stats(src, dst);
  }
  stats_ = std::move(grown);
  nodes_.push_back({node_name, nic, node_sim, region});
  nic->set_rx_handler(kEtherTypePathProbe,
                      [this, dst_idx](const net::EthernetFrame& frame, const net::RxMeta& meta) {
                        on_probe(dst_idx, frame, meta);
                      });
}

void PathDelayMeter::on_probe(std::uint32_t dst_idx, const net::EthernetFrame& frame,
                              const net::RxMeta& meta) {
  gptp::ByteReader r(frame.payload);
  const std::uint32_t src_idx = r.u32();
  const std::int64_t tx_true_ns = r.i64();
  if (!r.ok() || src_idx >= nodes_.size()) return;
  const double delay = static_cast<double>(meta.true_rx_time.ns() - tx_true_ns);
  const Node& dst = nodes_[dst_idx];
  if (rt_ != nullptr && dst.region != home_region_) {
    // Executing in the receiver's region: ship the sample home.
    const sim::SimTime at(dst.sim->now().ns() + sim::kControlLookaheadNs);
    rt_->post_control(home_region_, at, [this, src_idx, dst_idx, delay] {
      record(src_idx, dst_idx, delay);
    });
    return;
  }
  record(src_idx, dst_idx, delay);
}

void PathDelayMeter::record(std::uint32_t src_idx, std::uint32_t dst_idx, double delay_ns) {
  stats_[src_idx * nodes_.size() + dst_idx].delay_ns.add(delay_ns);
  ++probes_received_;
}

void PathDelayMeter::send_from(std::uint32_t src_idx) {
  const Node& src = nodes_[src_idx];
  const std::int64_t tx_true_ns = (src.sim != nullptr ? *src.sim : sim_).now().ns();
  for (const Node& dst : nodes_) {
    if (dst.nic == src.nic) continue;
    net::EthernetFrame frame;
    frame.dst = dst.nic->mac();
    frame.ethertype = kEtherTypePathProbe;
    if (vlan_id_ != 0) frame.vlan = net::VlanTag{vlan_id_, 0};
    gptp::BasicByteWriter<net::Payload> w(frame.payload);
    w.u32(src_idx);
    w.i64(tx_true_ns);
    w.zeros(34); // pad to a plausible probe size
    src.nic->send(std::move(frame));
  }
}

void PathDelayMeter::sweep() {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (rt_ != nullptr && nodes_[i].region != home_region_) {
      // Command the node's region to send; +2x lookahead keeps the post
      // legal however late in the stage this sweep executes.
      const sim::SimTime at(sim_.now().ns() + 2 * sim::kControlLookaheadNs);
      rt_->post_control(nodes_[i].region, at, [this, i] { send_from(i); });
    } else {
      send_from(i);
    }
  }
  if (--rounds_left_ > 0) {
    sim_.after(spacing_ns_, [this] { sweep(); });
  } else if (on_done_) {
    // Give in-flight probes time to land before reporting (partitioned:
    // plus the command/report channel legs).
    const std::int64_t margin = rt_ != nullptr ? 4 * sim::kControlLookaheadNs : 0;
    sim_.after(spacing_ns_ + margin, [this] { on_done_(); });
  }
}

void PathDelayMeter::run(int rounds, std::int64_t spacing_ns, std::function<void()> on_done) {
  rounds_left_ = rounds;
  spacing_ns_ = spacing_ns;
  on_done_ = std::move(on_done);
  sim_.after(0, [this] { sweep(); });
}

std::size_t PathDelayMeter::index_of(const std::string& node_name) const {
  std::size_t i = 0;
  while (i < nodes_.size() && nodes_[i].name != node_name) ++i;
  return i;
}

std::map<std::pair<std::string, std::string>, PathDelayMeter::PairStats> PathDelayMeter::pairs()
    const {
  std::map<std::pair<std::string, std::string>, PairStats> out;
  for (std::size_t src = 0; src < nodes_.size(); ++src) {
    for (std::size_t dst = 0; dst < nodes_.size(); ++dst) {
      const PairStats& st = stats(src, dst);
      if (st.delay_ns.count() > 0) out.emplace(std::pair{nodes_[src].name, nodes_[dst].name}, st);
    }
  }
  return out;
}

double PathDelayMeter::dmin_ns() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const PairStats& st : stats_) {
    if (st.delay_ns.count() > 0) lo = std::min(lo, st.delay_ns.min());
  }
  return lo;
}

double PathDelayMeter::dmax_ns() const {
  double hi = -std::numeric_limits<double>::infinity();
  for (const PairStats& st : stats_) {
    if (st.delay_ns.count() > 0) hi = std::max(hi, st.delay_ns.max());
  }
  return hi;
}

double PathDelayMeter::gamma_ns(const std::string& measurement_node,
                                const std::vector<std::string>& destinations) const {
  double path_max = -std::numeric_limits<double>::infinity();
  double path_min = std::numeric_limits<double>::infinity();
  const std::size_t src = index_of(measurement_node);
  for (const auto& dst_name : destinations) {
    const std::size_t dst = index_of(dst_name);
    if (src == nodes_.size() || dst == nodes_.size()) continue;
    const PairStats& st = stats(src, dst);
    if (st.delay_ns.count() == 0) continue;
    path_max = std::max(path_max, st.delay_ns.max());
    path_min = std::min(path_min, st.delay_ns.min());
  }
  if (path_min > path_max) return 0.0;
  return path_max - path_min;
}

} // namespace tsn::measure

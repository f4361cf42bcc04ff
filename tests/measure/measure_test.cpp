#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gptp/wire.hpp"
#include "measure/bound.hpp"
#include "measure/path_delay.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/simulation.hpp"

namespace tsn::measure {
namespace {

using tsn::sim::SimTime;
using tsn::sim::Simulation;
using namespace tsn::sim::literals;

TEST(BoundTest, PaperExperiment1Values) {
  // Section III-B: dmin 4120, dmax 9188 -> E 5068, Pi 12.636 us.
  BoundInputs in;
  in.dmin_ns = 4120;
  in.dmax_ns = 9188;
  const auto b = compute_bound(in);
  EXPECT_DOUBLE_EQ(b.reading_error_ns, 5068.0);
  EXPECT_DOUBLE_EQ(b.drift_offset_ns, 1250.0);
  EXPECT_DOUBLE_EQ(b.multiplier, 2.0);
  EXPECT_DOUBLE_EQ(b.pi_ns, 12'636.0);
}

TEST(BoundTest, ScalesWithSyncInterval) {
  BoundInputs in;
  in.dmin_ns = 0;
  in.dmax_ns = 0;
  in.sync_interval_ns = 1'000'000'000; // 1 s
  const auto b = compute_bound(in);
  EXPECT_DOUBLE_EQ(b.drift_offset_ns, 10'000.0); // 2 * 5ppm * 1s
  EXPECT_DOUBLE_EQ(b.pi_ns, 20'000.0);
}

TEST(BoundTest, MoreCLocksTightenMultiplier) {
  BoundInputs in;
  in.dmin_ns = 0;
  in.dmax_ns = 1000;
  in.n = 7;
  in.f = 1;
  const auto b = compute_bound(in);
  EXPECT_DOUBLE_EQ(b.multiplier, 1.25); // (7-2)/(7-3)
}

time::PhcModel quiet() {
  time::PhcModel m;
  m.oscillator.initial_drift_ppm = 0.0;
  m.oscillator.wander_sigma_ppm = 0.0;
  m.timestamp_jitter_ns = 0.0;
  return m;
}

TEST(PathDelayMeterTest, MeasuresAsymmetricPairDelays) {
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  lc.a_to_b = {1000, 0.0};
  lc.b_to_a = {3000, 0.0};
  net::Link link(sim, a.port(), b.port(), lc, "ab");

  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  bool done = false;
  meter.run(5, 10_ms, [&] { done = true; });
  sim.run_until(SimTime(1_s));
  ASSERT_TRUE(done);
  EXPECT_EQ(meter.probes_received(), 10u);
  // Probe frames: 46B payload -> 64B minimum frame + 20B overhead = 672 ns
  // serialization (true transit includes it), plus propagation.
  const auto pairs = meter.pairs();
  const auto& ab = pairs.at({"a", "b"});
  const auto& ba = pairs.at({"b", "a"});
  EXPECT_NEAR(ab.delay_ns.mean(), 1000.0 + 672.0, 2.0);
  EXPECT_NEAR(ba.delay_ns.mean(), 3000.0 + 672.0, 2.0);
  EXPECT_NEAR(meter.reading_error_ns(), 2000.0, 4.0);
}

TEST(PathDelayMeterTest, GammaOverSelectedPaths) {
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  lc.a_to_b = {1000, 0.0};
  lc.b_to_a = {1400, 0.0};
  net::Link link(sim, a.port(), b.port(), lc, "ab");
  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  meter.run(3, 10_ms);
  sim.run_until(SimTime(1_s));
  // gamma over only a->b: zero jitter -> max == min -> gamma == 0.
  EXPECT_NEAR(meter.gamma_ns("a", {"b"}), 0.0, 1.0);
  // Unknown destination contributes nothing.
  EXPECT_EQ(meter.gamma_ns("a", {"zzz"}), 0.0);
}

TEST(PathDelayMeterTest, DeadDestinationYieldsNoSamples) {
  Simulation sim{9};
  net::Nic a(sim, quiet(), net::MacAddress::from_u64(0xA), "a");
  net::Nic b(sim, quiet(), net::MacAddress::from_u64(0xB), "b");
  net::LinkConfig lc;
  net::Link link(sim, a.port(), b.port(), lc, "ab");
  b.set_up(false);
  PathDelayMeter meter(sim, 0, "meter");
  meter.add_node("a", &a);
  meter.add_node("b", &b);
  meter.run(3, 10_ms);
  sim.run_until(SimTime(1_s));
  EXPECT_EQ(meter.pairs().count({"a", "b"}), 0u);
}

TEST(PathDelayMeterTest, SixNodeStatisticsMatchTheRawSamples) {
  // Six NICs on one switch with jittered links and residence. Each NIC
  // port's tap decodes the probes it receives, so the test keeps its own
  // copy of every sample the meter records.
  Simulation sim{21};
  net::SwitchConfig scfg;
  scfg.port_count = 6;
  scfg.phc = quiet();
  net::Switch sw(sim, scfg, "sw");
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::vector<std::unique_ptr<net::Link>> links;
  std::map<std::pair<std::string, std::string>, std::vector<double>> raw;
  PathDelayMeter meter(sim, 0, "meter");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 6; ++i) names.push_back("n" + std::to_string(i));
  for (std::size_t i = 0; i < 6; ++i) {
    nics.push_back(std::make_unique<net::Nic>(sim, quiet(), net::MacAddress::from_u64(0x20 + i),
                                              names[i]));
    net::LinkConfig lc;
    lc.a_to_b = {static_cast<std::int64_t>(500 + 100 * i), 30.0};
    lc.b_to_a = {static_cast<std::int64_t>(700 + 50 * i), 30.0};
    links.push_back(std::make_unique<net::Link>(sim, nics[i]->port(), sw.port(i), lc, names[i]));
    meter.add_node(names[i], nics[i].get());
    net::Nic* nic = nics[i].get();
    nic->port().set_tap([&, nic, i](const net::EthernetFrame& f, bool is_tx) {
      if (is_tx || f.ethertype != kEtherTypePathProbe || f.dst != nic->mac()) return;
      gptp::ByteReader r(f.payload);
      const std::uint32_t src = r.u32();
      const std::int64_t tx_ns = r.i64();
      ASSERT_TRUE(r.ok());
      raw[{names[src], names[i]}].push_back(static_cast<double>(sim.now().ns() - tx_ns));
    });
  }
  meter.run(4, 10_ms);
  sim.run_until(SimTime(1_s));
  ASSERT_EQ(raw.size(), 30u); // every ordered pair of distinct nodes

  const auto pairs = meter.pairs();
  ASSERT_EQ(pairs.size(), raw.size());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& [key, samples] : raw) {
    util::RunningStats expect;
    for (const double d : samples) expect.add(d);
    const util::RunningStats& got = pairs.at(key).delay_ns;
    EXPECT_EQ(got.count(), expect.count());
    EXPECT_EQ(got.min(), expect.min());
    EXPECT_EQ(got.max(), expect.max());
    EXPECT_EQ(got.mean(), expect.mean());
    lo = std::min(lo, expect.min());
    hi = std::max(hi, expect.max());
  }
  EXPECT_EQ(meter.dmin_ns(), lo);
  EXPECT_EQ(meter.dmax_ns(), hi);
  EXPECT_LT(lo, hi);

  const std::vector<std::string> dests{"n1", "n3", "n5"};
  double path_lo = std::numeric_limits<double>::infinity();
  double path_hi = -path_lo;
  for (const auto& d : dests) {
    const auto& samples = raw.at({"n0", d});
    path_lo = std::min(path_lo, *std::min_element(samples.begin(), samples.end()));
    path_hi = std::max(path_hi, *std::max_element(samples.begin(), samples.end()));
  }
  EXPECT_EQ(meter.gamma_ns("n0", dests), path_hi - path_lo);
  // Unknown names contribute nothing; an unknown source has no paths.
  EXPECT_EQ(meter.gamma_ns("n0", {"n1", "zzz", "n3", "n5"}), path_hi - path_lo);
  EXPECT_EQ(meter.gamma_ns("zzz", dests), 0.0);
}

} // namespace
} // namespace tsn::measure

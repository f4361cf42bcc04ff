// Capture simulated gPTP traffic to a Wireshark-readable pcap file.
//
// Runs a grandmaster and a slave for two seconds with a PcapTracer attached
// to the slave's port, then writes ./gptp_capture.pcap. Open it with
// `wireshark gptp_capture.pcap` or `tshark -r gptp_capture.pcap` -- the
// Sync/FollowUp/Pdelay messages dissect natively (EtherType 0x88F7).
//
//   $ ./capture_traffic
#include <cstdio>

#include "gptp/stack.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/pcap.hpp"
#include "sim/simulation.hpp"

using namespace tsn;
using namespace tsn::sim::literals;

int main() {
  sim::Simulation sim(3);
  net::Nic gm(sim, {}, net::MacAddress::from_u64(0xA), "gm");
  net::Nic slave(sim, {}, net::MacAddress::from_u64(0xB), "slave");
  net::Link link(sim, gm.port(), slave.port(), {}, "wire");

  gptp::PtpStack stack_gm(sim, gm, {}, "GM");
  gptp::PtpStack stack_slave(sim, slave, {}, "SLAVE");
  gptp::InstanceConfig gm_cfg;
  gm_cfg.role = gptp::PortRole::kMaster;
  gptp::InstanceConfig slave_cfg;
  slave_cfg.role = gptp::PortRole::kSlave;
  stack_gm.add_instance(gm_cfg);
  auto& inst = stack_slave.add_instance(slave_cfg);
  inst.enable_local_servo({});

  const char* path = "gptp_capture.pcap";
  net::PcapTracer tracer(sim, path);
  tracer.attach(slave.port()); // both directions at the slave

  stack_gm.start();
  stack_slave.start();
  sim.run_until(sim::SimTime(2_s));
  tracer.flush();

  std::printf("captured %llu gPTP frames over 2 s into %s\n",
              static_cast<unsigned long long>(tracer.frames_written()), path);
  std::printf("  (expect ~2x8 Sync + FollowUp per second plus 1 Hz peer-delay exchanges)\n");
  std::printf("open with: tshark -r %s | head\n", path);
  return tracer.frames_written() > 40 ? 0 : 1;
}

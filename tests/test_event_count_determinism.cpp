// Bit-identical determinism pins for a fixed forwarding scenario.
//
// The event kernel guarantees FIFO order at equal timestamps and a fully
// deterministic run for a fixed input. These tests pin the exact event
// count, final simulation time, and delivery counters of an 8-port
// all-to-all forwarding run on all three switch models. Any change to
// scheduling order, slot reuse, packet pooling, or model timing that
// perturbs the trajectory — even by one event — fails loudly here. The
// RMT and ADCP constants were produced by the pre-pooling kernel, the RTC
// ones by the switch models before they shared a chassis; all must survive
// any future performance work or refactor unchanged.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "rtc/programs.hpp"
#include "rtc/rtc_switch.hpp"
#include "sim/simulator.hpp"

namespace adcp {
namespace {

packet::IncPacketSpec spec_to_host(std::uint32_t dst_host, std::uint32_t flow,
                                   std::uint32_t seq) {
  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000000 | dst_host;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = flow;
  spec.inc.seq = seq;
  spec.inc.elements.push_back({seq, seq * 2});
  return spec;
}

template <typename Switch>
void send_all_to_all(net::Fabric& fabric) {
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      if (s == d) continue;
      for (std::uint32_t i = 0; i < 5; ++i) {
        fabric.host(s).send_inc(spec_to_host(d, s * 100 + d, i));
      }
    }
  }
}

TEST(EventCountDeterminism, RmtAllToAllTrajectoryIsPinned) {
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 8;
  cfg.pipeline_count = 2;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  send_all_to_all<rmt::RmtSwitch>(fabric);

  EXPECT_EQ(sim.run(), 1977u);
  EXPECT_EQ(sim.now(), 567'680u);
  std::uint64_t rx = 0;
  for (std::uint32_t d = 0; d < 8; ++d) rx += fabric.host(d).rx_packets();
  EXPECT_EQ(rx, 280u);  // 8*7 pairs x 5 packets, zero loss
  EXPECT_EQ(sw.stats().tx_packets, 280u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventCountDeterminism, AdcpAllToAllTrajectoryIsPinned) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  cfg.demux_factor = 2;
  cfg.central_pipeline_count = 2;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  send_all_to_all<core::AdcpSwitch>(fabric);

  EXPECT_EQ(sim.run(), 2522u);
  EXPECT_EQ(sim.now(), 590'480u);
  std::uint64_t rx = 0;
  for (std::uint32_t d = 0; d < 8; ++d) rx += fabric.host(d).rx_packets();
  EXPECT_EQ(rx, 280u);
  EXPECT_EQ(sw.stats().tx_packets, 280u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventCountDeterminism, RtcAllToAllTrajectoryIsPinned) {
  sim::Simulator sim;
  rtc::RtcConfig cfg;
  cfg.port_count = 8;
  rtc::RtcSwitch sw(sim, cfg);
  sw.load_program(rtc::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  send_all_to_all<rtc::RtcSwitch>(fabric);

  EXPECT_EQ(sim.run(), 1433u);
  EXPECT_EQ(sim.now(), 2'006'240u);
  std::uint64_t rx = 0;
  for (std::uint32_t d = 0; d < 8; ++d) rx += fabric.host(d).rx_packets();
  EXPECT_EQ(rx, 280u);
  EXPECT_EQ(sw.stats().tx_packets, 280u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventCountDeterminism, RepeatedRunsAreBitIdentical) {
  auto run_once = [] {
    sim::Simulator sim;
    rmt::RmtConfig cfg;
    cfg.port_count = 8;
    cfg.pipeline_count = 2;
    rmt::RmtSwitch sw(sim, cfg);
    sw.load_program(rmt::forward_program(cfg));
    net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
    send_all_to_all<rmt::RmtSwitch>(fabric);
    const std::uint64_t executed = sim.run();
    return std::pair<std::uint64_t, sim::Time>{executed, sim.now()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace adcp

// Failure injection: malformed, truncated, oversized, and hostile inputs
// must be contained (counted drops), never corrupt state, and never wedge
// the event loop.
#include <gtest/gtest.h>

#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace adcp {
namespace {

packet::Packet good_packet(std::uint32_t dst) {
  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000000 | dst;
  spec.inc.elements.push_back({1, 2});
  return packet::make_inc_packet(spec);
}

TEST(FailureInjection, TruncatedPacketDroppedByAdcp) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::Packet pkt = good_packet(1);
  pkt.data.resize(30);  // cut inside IPv4
  fabric.host(0).send(std::move(pkt));
  fabric.host(0).send(good_packet(1));  // a healthy one behind it
  sim.run();

  EXPECT_EQ(sw.stats().parse_drops, 1u);
  EXPECT_EQ(fabric.host(1).rx_packets(), 1u);  // traffic continues
}

TEST(FailureInjection, TruncatedPacketDroppedByRmt) {
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 4;
  cfg.pipeline_count = 2;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::Packet pkt = good_packet(1);
  pkt.data.resize(10);  // cut inside Ethernet
  fabric.host(0).send(std::move(pkt));
  sim.run();
  EXPECT_EQ(sw.stats().parse_drops, 1u);
  EXPECT_EQ(sw.stats().tx_packets, 0u);
}

TEST(FailureInjection, ElementCountBeyondLaneBudgetRejected) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  core::AdcpProgram prog = core::forward_program(cfg);
  prog.shared_parse = packet::shared_standard_parse_graph<8>();  // 8-lane parser
  sw.load_program(std::move(prog));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000001;
  for (int i = 0; i < 16; ++i) spec.inc.elements.push_back({1, 1});  // 16 > 8
  fabric.host(0).send_inc(spec);
  sim.run();
  EXPECT_EQ(sw.stats().parse_drops, 1u);
}

TEST(FailureInjection, LyingElementCountIsTruncationSafe) {
  // Header claims 10 elements but carries 2: the parser sees a truncated
  // array area and rejects rather than reading past the buffer.
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000001;
  spec.inc.elements.push_back({1, 1});
  spec.inc.elements.push_back({2, 2});
  packet::Packet pkt = packet::make_inc_packet(spec);
  pkt.data.write(packet::kEthernetBytes + packet::kIpv4Bytes + packet::kUdpBytes + 1, 1,
                 10);  // forge the count
  fabric.host(0).send(std::move(pkt));
  sim.run();
  EXPECT_EQ(sw.stats().parse_drops, 1u);
}

TEST(FailureInjection, MulticastToUnknownGroupCountsNoRoute) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::group_comm_program(cfg));
  // Deliberately do NOT install group 5.
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kGroupXfer;
  spec.inc.worker_id = 5;  // unknown group
  spec.inc.elements.push_back({1, 1});
  fabric.host(0).send_inc(spec);
  sim.run();
  EXPECT_EQ(sw.stats().no_route_drops, 1u);
  EXPECT_EQ(sw.stats().tx_packets, 0u);
}

TEST(FailureInjection, BufferExhaustionRecovers) {
  // Starve the TM buffer with an incast, then confirm the switch still
  // forwards fresh traffic afterwards (no stuck accounting).
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 8;
  cfg.pipeline_count = 2;
  cfg.tm_buffer_bytes = 2048;
  cfg.tm_alpha = 16.0;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  for (std::uint32_t s = 1; s < 8; ++s) {
    for (int i = 0; i < 40; ++i) {
      packet::IncPacketSpec spec;
      spec.ip_dst = 0x0a000000;
      spec.pad_to = 400;
      fabric.host(s).send_inc(spec);
    }
  }
  sim.run();
  ASSERT_GT(sw.traffic_manager().stats().dropped, 0u);
  EXPECT_EQ(sw.traffic_manager().buffer().used(), 0u);  // fully drained

  const std::uint64_t before = fabric.host(2).rx_packets();
  fabric.host(1).send(good_packet(2));
  sim.run();
  EXPECT_EQ(fabric.host(2).rx_packets(), before + 1);
}

TEST(FailureInjection, RandomGarbageNeverCrashesParser) {
  const packet::ParseGraph g = packet::standard_parse_graph(16);
  const packet::Parser parser(&g);
  sim::Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    packet::Packet pkt;
    const std::size_t len = rng.uniform(0, 128);
    pkt.data.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      pkt.data.write(i, 1, rng.uniform(0, 255));
    }
    const packet::ParseResult r = parser.parse(pkt);  // must not crash
    if (r.accepted) {
      EXPECT_LE(r.consumed, len);
    }
  }
}

TEST(FailureInjection, FuzzedIncPacketsThroughAdcpSurvive) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::aggregation_program(cfg, core::AggregationOptions{}));
  sw.set_multicast_group(1, {0, 1, 2, 3});
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  sim::Rng rng(321);
  for (int i = 0; i < 300; ++i) {
    packet::Packet pkt = good_packet(static_cast<std::uint32_t>(rng.uniform(0, 3)));
    // Flip a few random bytes anywhere in the packet.
    for (int b = 0; b < 3; ++b) {
      const std::size_t at = rng.index(pkt.data.size());
      pkt.data.write(at, 1, rng.uniform(0, 255));
    }
    fabric.host(static_cast<std::size_t>(rng.uniform(0, 3))).send(std::move(pkt));
  }
  sim.run();  // must terminate with no assertion failures
  const auto& st = sw.stats();
  EXPECT_EQ(st.rx_packets, 300u);
  // Conservation: every packet is transmitted, dropped, or consumed.
  EXPECT_LE(st.tx_packets, 4 * 300u);  // multicast may amplify
}

TEST(FailureInjection, ZeroElementShufflePacketDropped) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::shuffle_program(cfg, core::ShuffleOptions{}));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000001;
  spec.inc.opcode = packet::IncOpcode::kShuffle;  // no elements
  fabric.host(0).send_inc(spec);
  sim.run();
  EXPECT_EQ(sw.stats().program_drops, 1u);
}

TEST(FailureInjection, LockPacketWithoutKeyDropped) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::lock_service_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kLockAcquire;  // no elements
  fabric.host(0).send_inc(spec);
  sim.run();
  EXPECT_EQ(sw.stats().program_drops, 1u);
}

}  // namespace
}  // namespace adcp

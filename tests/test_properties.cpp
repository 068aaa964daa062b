// Cross-cutting property tests: conservation laws and randomized
// invariants that must hold for ANY traffic, not just the curated
// scenarios of the unit suites.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "rtc/programs.hpp"
#include "rtc/rtc_switch.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tm/placement.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp {
namespace {

// ------------------------------------------------------------ TM invariants

class TmConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TmConservation, EnqueuedEqualsDequeuedPlusDroppedPlusResident) {
  sim::Rng rng(GetParam());
  tm::TmConfig cfg;
  cfg.outputs = 4;
  cfg.buffer_bytes = 8192;  // small enough that drops happen
  cfg.alpha = 4.0;
  tm::TrafficManager tm(cfg);

  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dequeued = 0;
  for (int step = 0; step < 3000; ++step) {
    if (rng.chance(0.6)) {
      packet::IncPacketSpec spec;
      spec.inc.flow_id = static_cast<std::uint32_t>(rng.uniform(1, 8));
      spec.pad_to = static_cast<std::uint32_t>(rng.uniform(66, 500));
      ++offered;
      if (tm.enqueue(static_cast<std::uint32_t>(rng.uniform(0, 3)), 0,
                     packet::make_inc_packet(spec))) {
        ++accepted;
      }
    } else {
      if (tm.dequeue(static_cast<std::uint32_t>(rng.uniform(0, 3)))) ++dequeued;
    }
    // Invariant: buffer usage equals the bytes of resident packets and
    // never exceeds capacity.
    EXPECT_LE(tm.buffer().used(), tm.buffer().capacity());
  }

  std::uint64_t resident = 0;
  for (std::uint32_t q = 0; q < 4; ++q) resident += tm.output_packets(q);
  EXPECT_EQ(accepted, dequeued + resident);
  EXPECT_EQ(offered, accepted + tm.stats().dropped);

  // Drain completely: the buffer accountant must return to zero.
  for (std::uint32_t q = 0; q < 4; ++q) {
    while (tm.dequeue(q)) {
    }
  }
  EXPECT_EQ(tm.buffer().used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TmConservation, ::testing::Values(1, 2, 3, 7, 42));

// ------------------------------------------------- switch packet conservation

/// Drives `sw` with a seeded mix (mostly incast to port 0, some spread,
/// some unroutable) on small buffers, and checks that every packet either
/// left or was dropped with a counted reason: nothing is resident after
/// run() completes. `model_drops` adds the model's own drop sites.
template <typename Switch, typename Config, typename Program, typename ModelDrops>
void expect_conservation(std::uint64_t seed, const Config& cfg, Program program,
                         ModelDrops model_drops) {
  sim::Rng rng(seed);
  sim::Simulator sim;
  Switch sw(sim, cfg);
  sw.load_program(std::move(program));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  constexpr std::uint64_t kPackets = 400;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    packet::IncPacketSpec spec;
    const auto dice = rng.uniform(0, 9);
    spec.ip_dst = dice < 7 ? 0x0a000000
                           : (dice == 9 ? 0x0a0000c8  // host 200: no route
                                        : 0x0a000000 | rng.uniform(1, 7));
    spec.inc.flow_id = rng.uniform(1, 5);
    spec.pad_to = 300;
    fabric.host(static_cast<std::size_t>(rng.uniform(0, 7))).send_inc(spec);
  }
  sim.run();

  const auto st = sw.stats();
  EXPECT_EQ(st.rx_packets, kPackets);
  EXPECT_GT(model_drops(sw), 0u);  // the buffers are small enough to drop
  EXPECT_EQ(st.rx_packets, st.tx_packets + st.parse_drops + st.program_drops +
                               st.no_route_drops + model_drops(sw));
}

class SwitchConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchConservation, RmtAccountsEveryPacket) {
  rmt::RmtConfig cfg;
  cfg.port_count = 8;
  cfg.pipeline_count = 2;
  cfg.tm_buffer_bytes = 16'384;  // small: drops occur under incast
  expect_conservation<rmt::RmtSwitch>(
      GetParam(), cfg, rmt::forward_program(cfg), [](const rmt::RmtSwitch& sw) {
        return sw.stats().recirc_limit_drops + sw.traffic_manager().stats().dropped;
      });
}

TEST_P(SwitchConservation, AdcpAccountsEveryPacket) {
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  cfg.tm2_buffer_bytes = 16'384;
  expect_conservation<core::AdcpSwitch>(
      GetParam(), cfg, core::forward_program(cfg), [](core::AdcpSwitch& sw) {
        return sw.tm1().stats().dropped + sw.tm2().stats().dropped;
      });
}

TEST_P(SwitchConservation, RtcAccountsEveryPacket) {
  rtc::RtcConfig cfg;
  cfg.port_count = 8;
  cfg.dispatch_queue_packets = 64;  // small: the dispatcher tail-drops
  expect_conservation<rtc::RtcSwitch>(
      GetParam(), cfg, rtc::forward_program(cfg),
      [](const rtc::RtcSwitch& sw) { return sw.stats().queue_drops; });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchConservation, ::testing::Values(11, 22, 33));

// ----------------------------------------------------- placement properties

class PlacementPartition : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PlacementPartition, RangePolicyIsMonotoneAndTotal) {
  const std::uint32_t pipes = GetParam();
  const tm::PlacementFn place = tm::placement::by_key_range(pipes, 10'000);
  std::uint32_t prev = 0;
  for (std::uint64_t key = 0; key < 10'000; key += 37) {
    packet::IncPacketSpec spec;
    spec.inc.elements.push_back({static_cast<std::uint32_t>(key), 0});
    const std::uint32_t p = place(packet::make_inc_packet(spec));
    EXPECT_LT(p, pipes);
    EXPECT_GE(p, prev);  // monotone in the key
    prev = p;
  }
  EXPECT_EQ(prev, pipes - 1);  // the top of the range reaches the last pipe
}

INSTANTIATE_TEST_SUITE_P(PipeCounts, PlacementPartition, ::testing::Values(1, 2, 4, 8));

// --------------------------------------------------------- host multi-sink

TEST(HostCallbacks, MultipleSinksAllFire) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  int a = 0, b = 0, c = 0;
  fabric.host(1).add_rx_callback([&](net::Host&, const packet::Packet&) { ++a; });
  fabric.host(1).add_rx_callback([&](net::Host&, const packet::Packet&) { ++b; });
  fabric.host(1).set_rx_callback([&](net::Host&, const packet::Packet&) { ++c; });

  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000001;
  fabric.host(0).send_inc(spec);
  sim.run();

  // set_rx_callback replaced the two earlier sinks.
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(c, 1);

  fabric.host(1).add_rx_callback([&](net::Host&, const packet::Packet&) { ++a; });
  fabric.host(0).send_inc(spec);
  sim.run();
  EXPECT_EQ(c, 2);
  EXPECT_EQ(a, 1);  // both the replacement and the added sink fired
}

// -------------------------------------------------- determinism end to end

TEST(Determinism, IdenticalRunsProduceIdenticalStats) {
  const auto run_once = [] {
    sim::Simulator sim;
    core::AdcpConfig cfg;
    cfg.port_count = 8;
    core::AdcpSwitch sw(sim, cfg);
    core::AggregationOptions agg;
    agg.workers = 8;
    sw.load_program(core::aggregation_program(cfg, agg));
    std::vector<packet::PortId> group = {0, 1, 2, 3, 4, 5, 6, 7};
    sw.set_multicast_group(1, group);
    net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
    sim::Rng rng(99);
    for (int i = 0; i < 200; ++i) {
      packet::IncPacketSpec spec;
      spec.inc.opcode = packet::IncOpcode::kAggUpdate;
      spec.inc.seq = static_cast<std::uint32_t>(i % 4);
      spec.inc.worker_id = static_cast<std::uint32_t>(i % 8);
      spec.inc.flow_id = spec.inc.worker_id + 1;
      spec.inc.elements.push_back(
          {static_cast<std::uint32_t>(rng.uniform(0, 63)), 1});
      fabric.host(i % 8).send_inc(spec);
    }
    sim.run();
    return std::make_tuple(sw.stats().tx_packets, sw.stats().program_drops,
                           sim.now());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace adcp

// packet::Pool behavior and the zero-steady-state-allocation guarantee.
//
// The pooling refactor's whole point is that the per-packet substrate chain
// (pool -> make_inc_packet_into -> parse_into -> pipeline -> traffic
// manager -> deparse_into) performs no heap allocation once warm. That is
// enforced here with the counting allocator of tests/support, linked into
// this test binary only.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "packet/deparser.hpp"
#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "rtc/rtc_switch.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "support/alloc_counter.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::packet {
namespace {

IncPacketSpec small_spec() {
  IncPacketSpec spec;
  spec.inc.opcode = IncOpcode::kAggUpdate;
  for (std::uint32_t i = 0; i < 4; ++i) spec.inc.elements.push_back({i, i + 1});
  return spec;
}

TEST(PacketPool, ReacquiredPacketIsEmptyWithDefaultMetadata) {
  Pool pool;
  Packet pkt = pool.acquire();
  EXPECT_EQ(pool.stats().fresh, 1u);
  make_inc_packet_into(small_spec(), pkt);
  ASSERT_GT(pkt.size(), 0u);
  pkt.meta.ingress_port = 3;
  pkt.meta.flow_hash = 0x5eed;
  const std::size_t had_capacity = pkt.data.capacity();

  pool.release(std::move(pkt));
  Packet again = pool.acquire();
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(again.size(), 0u);
  EXPECT_EQ(again.meta.ingress_port, kInvalidPort);
  EXPECT_EQ(again.meta.flow_hash, 0u);
  // The whole point of recycling: capacity survives the round trip.
  EXPECT_GE(again.data.capacity(), had_capacity);
}

TEST(PacketPool, MaxIdleCapsRetention) {
  Pool pool(2);
  pool.release(Packet{});
  pool.release(Packet{});
  pool.release(Packet{});  // surplus: freed, not parked
  EXPECT_EQ(pool.idle(), 2u);
  EXPECT_EQ(pool.stats().released, 3u);
}

TEST(PacketPool, InterleavedAcquireReleaseThroughPipelineAndTm) {
  Pool pool;
  const ParseGraph graph = standard_parse_graph(64);
  const Parser parser(&graph);
  const Deparser deparser = standard_deparser();
  pipeline::PipelineConfig pc;
  pc.stage_count = 4;
  pipeline::Pipeline pipe(pc);
  tm::TmConfig cfg;
  cfg.outputs = 4;
  cfg.buffer_bytes = 1ull << 24;
  tm::TrafficManager tmgr(cfg);
  tmgr.set_pool(&pool);

  const IncPacketSpec spec = small_spec();
  ParseResult res;
  Packet out;
  for (int i = 0; i < 200; ++i) {
    Packet pkt = pool.acquire();
    make_inc_packet_into(spec, pkt);
    parser.parse_into(pkt, res);
    ASSERT_TRUE(res.accepted);
    pipe.process(0, res.phv);
    ASSERT_TRUE(tmgr.enqueue(static_cast<std::uint32_t>(i) & 3, 0, std::move(pkt)));
    auto got = tmgr.dequeue(static_cast<std::uint32_t>(i) & 3);
    ASSERT_TRUE(got.has_value());
    deparser.deparse_into(res.phv, *got, res.consumed, out);
    EXPECT_GT(out.size(), 0u);
    pool.release(std::move(*got));
    pool.release(std::move(out));
    out = pool.acquire();  // keep `out` a live pooled value across rounds
  }
  // One packet + one deparse target circulating: the pool never grows
  // beyond the working set.
  EXPECT_LE(pool.stats().fresh, 4u);
  EXPECT_GE(pool.stats().recycled, 300u);
}

TEST(PacketPool, SteadyStateForwardingDoesNotAllocate) {
  Pool pool;
  const ParseGraph graph = standard_parse_graph(64);
  const Parser parser(&graph);
  const Deparser deparser = standard_deparser();
  pipeline::PipelineConfig pc;
  pc.stage_count = 4;
  pipeline::Pipeline pipe(pc);
  tm::TmConfig cfg;
  cfg.outputs = 4;
  cfg.buffer_bytes = 1ull << 24;
  tm::TrafficManager tmgr(cfg);
  tmgr.set_pool(&pool);

  const IncPacketSpec spec = small_spec();
  ParseResult res;

  // Acquire/release balance is 2/2 per packet (the wire packet and the
  // deparse target), so the pool freelist reaches a fixed size and every
  // buffer keeps its capacity across rounds.
  const auto forward_one = [&](std::uint32_t port) {
    Packet pkt = pool.acquire();
    make_inc_packet_into(spec, pkt);
    parser.parse_into(pkt, res);
    ASSERT_TRUE(res.accepted);
    pipe.process(0, res.phv);
    ASSERT_TRUE(tmgr.enqueue(port, 0, std::move(pkt)));
    auto got = tmgr.dequeue(port);
    ASSERT_TRUE(got.has_value());
    Packet out = pool.acquire();
    deparser.deparse_into(res.phv, *got, res.consumed, out);
    pool.release(std::move(*got));
    pool.release(std::move(out));
  };

  // Warm every queue, the pool freelist, and all scratch capacities.
  for (std::uint32_t i = 0; i < 64; ++i) forward_one(i & 3);

  const std::uint64_t before = test::allocations();
  for (std::uint32_t i = 0; i < 1000; ++i) forward_one(i & 3);
  const std::uint64_t during = test::allocations() - before;
  EXPECT_EQ(during, 0u)
      << "steady-state substrate chain allocated " << during << " times over 1000 packets";
}

// The observability layer must not tax the hot path: with pool and TM
// registered in a SHARED MetricRegistry (names resolved once at
// construction), metric increments on the warm substrate chain perform no
// heap allocation. Registration itself may allocate — that happens here,
// before the warm-up.
TEST(PacketPool, RegistryBackedMetricsDoNotAllocateOnWarmChain) {
  sim::MetricRegistry registry;
  Pool pool(4096, registry.scope("rmt0.pool"));
  const ParseGraph graph = standard_parse_graph(64);
  const Parser parser(&graph);
  const Deparser deparser = standard_deparser();
  pipeline::PipelineConfig pc;
  pc.stage_count = 4;
  pipeline::Pipeline pipe(pc);
  tm::TmConfig cfg;
  cfg.outputs = 4;
  cfg.buffer_bytes = 1ull << 24;
  tm::TrafficManager tmgr(cfg, registry.scope("rmt0.tm"));
  tmgr.set_pool(&pool);

  const IncPacketSpec spec = small_spec();
  ParseResult res;
  const auto forward_one = [&](std::uint32_t port) {
    Packet pkt = pool.acquire();
    make_inc_packet_into(spec, pkt);
    parser.parse_into(pkt, res);
    ASSERT_TRUE(res.accepted);
    pipe.process(0, res.phv);
    ASSERT_TRUE(tmgr.enqueue(port, 0, std::move(pkt)));
    auto got = tmgr.dequeue(port);
    ASSERT_TRUE(got.has_value());
    Packet out = pool.acquire();
    deparser.deparse_into(res.phv, *got, res.consumed, out);
    pool.release(std::move(*got));
    pool.release(std::move(out));
  };

  for (std::uint32_t i = 0; i < 64; ++i) forward_one(i & 3);

  const std::uint64_t before = test::allocations();
  for (std::uint32_t i = 0; i < 1000; ++i) forward_one(i & 3);
  const std::uint64_t during = test::allocations() - before;
  EXPECT_EQ(during, 0u)
      << "registry-backed metrics allocated " << during << " times over 1000 packets";

  // The counters actually counted: 1064 packets enqueued/dequeued, two
  // pool round-trips per packet.
  const sim::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("rmt0.tm.enqueued"), 1064.0);
  EXPECT_EQ(snap.value("rmt0.tm.dequeued"), 1064.0);
  EXPECT_EQ(snap.value("rmt0.pool.released"), 2 * 1064.0);
  EXPECT_EQ(snap.value("rmt0.tm.drops.admission"), 0.0);
}

/// Multicast through a warm standalone switch: one 8-element kGroupXfer
/// packet at a time into port 0, fanned out to a 3-port group, with the
/// TX handler returning every replica to the switch pool. Replicas are
/// pooled copies and the template goes back to the pool, so after 64
/// warm-up packets the next 256 allocate nothing.
template <typename Switch, typename Config, typename Program>
std::uint64_t warm_multicast_allocations(const Config& cfg, Program program) {
  sim::Simulator sim;
  Switch sw(sim, cfg);
  sw.load_program(std::move(program));
  sw.set_multicast_group(3, {1, 2, 3});
  sw.set_tx_handler([&sw](PortId, Packet pkt) { sw.pool().release(std::move(pkt)); });

  IncPacketSpec spec;
  spec.inc.opcode = IncOpcode::kGroupXfer;
  spec.inc.worker_id = 3;  // the group
  for (std::uint32_t e = 0; e < 8; ++e) spec.inc.elements.push_back({e, 100 + e});
  const auto send = [&] {
    Packet pkt = sw.pool().acquire();
    make_inc_packet_into(spec, pkt);
    sw.inject(0, std::move(pkt));
    sim.run();
  };
  for (int i = 0; i < 64; ++i) send();
  // Histograms keep every sample (RTC residence time): pre-size them.
  const std::string latency = sw.metric_scope().prefix() + ".latency.residence_ps";
  if (sw.metrics().contains(latency)) sw.metrics().histogram(latency).reserve(512);
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 256; ++i) send();
  return test::allocations() - before;
}

TEST(PacketPool, WarmMulticastDoesNotAllocateOnAnyModel) {
  rmt::RmtConfig rc;
  rc.port_count = 8;
  EXPECT_EQ(warm_multicast_allocations<rmt::RmtSwitch>(rc, rmt::group_comm_program(rc)), 0u);

  core::AdcpConfig ac;
  ac.port_count = 8;
  EXPECT_EQ(warm_multicast_allocations<core::AdcpSwitch>(ac, core::group_comm_program(ac)),
            0u);

  rtc::RtcConfig tc;
  tc.port_count = 8;
  rtc::RtcProgram group_comm;
  group_comm.run = [](Phv& phv, rtc::SharedState&, const rtc::RtcConfig&) -> std::uint64_t {
    phv.set(fields::kMetaMulticastGroup, phv.get_or(fields::kIncWorkerId, 0));
    return 60;
  };
  EXPECT_EQ(warm_multicast_allocations<rtc::RtcSwitch>(tc, std::move(group_comm)), 0u);
}

}  // namespace
}  // namespace adcp::packet

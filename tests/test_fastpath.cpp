// fastpath:: subsystem — the admission guard (inspect must admit exactly
// the packets whose bytes a standard deparse would regenerate), the
// direct-mapped FlowCache (hit/miss/eviction accounting, epoch-safe
// invalidation on FIB and VersionedStore movement), the copy-and-patch
// rewrites, and the end-to-end pins: with the cache armed on a fabric the
// registry snapshot and span trace must be byte-identical to the cache-off
// run for every switch model, and the steady-state hit path must not
// allocate (the counting allocator of tests/support sees every allocation
// in the process).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "fastpath/fastpath.hpp"
#include "mat/versioned.hpp"
#include "packet/control.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "support/alloc_counter.hpp"
#include "support/fabric.hpp"
#include "topo/network.hpp"
#include "topo/routing.hpp"
#include "workload/rack_coflow.hpp"

namespace adcp {
namespace {

using test::fnv1a;
using workload::rack_hosts;

packet::Packet canonical_packet(std::uint32_t flow = 7, std::size_t elems = 0) {
  packet::IncPacketSpec spec;
  spec.ip_src = topo::make_ip(0, 0, 1);
  spec.ip_dst = topo::make_ip(1, 0, 1);
  spec.udp_src = static_cast<std::uint16_t>(40'000 + flow);
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = flow;
  spec.inc.coflow_id = 3;
  spec.inc.worker_id = 99;
  spec.inc.elements.resize(elems);
  return packet::make_inc_packet(spec);
}

// --- inspect: the admission guard ------------------------------------------

TEST(FastpathInspect, AdmitsCanonicalIncPacketAndDecodesFields) {
  const packet::Packet pkt = canonical_packet();
  fastpath::WireView w;
  ASSERT_TRUE(fastpath::inspect(pkt, 0, w));
  EXPECT_EQ(w.ip_src, topo::make_ip(0, 0, 1));
  EXPECT_EQ(w.ip_dst, topo::make_ip(1, 0, 1));
  EXPECT_EQ(w.udp_src, 40'007u);
  EXPECT_EQ(w.udp_dst, packet::kIncUdpPort);
  EXPECT_EQ(w.ttl, packet::kIncInitialTtl);
  EXPECT_EQ(w.opcode, static_cast<std::uint8_t>(packet::IncOpcode::kPlain));
  EXPECT_EQ(w.flow_id, 7u);
  EXPECT_EQ(w.coflow_id, 3u);
  EXPECT_EQ(w.worker_id, 99u);
}

TEST(FastpathInspect, RejectsEveryNonCanonicalConstantField) {
  // Each guarded byte, when perturbed, must push the packet to the slow
  // path — a deparse would not reproduce it, so copy-and-patch may not run.
  const struct {
    std::size_t offset;
    std::size_t width;
    std::uint64_t bad;
  } cases[] = {
      {12, 2, 0x86dd},  // ethertype not IPv4
      {14, 1, 0x46},    // IHL with options
      {18, 2, 1},       // nonzero IP identification
      {20, 2, 0x2000},  // fragment bits
      {23, 1, 6},       // TCP, not UDP
      {24, 2, 0xbeef},  // nonzero IP checksum
      {36, 2, 53},      // not the INC UDP port
      {40, 2, 0xbeef},  // nonzero UDP checksum
  };
  for (const auto& c : cases) {
    packet::Packet pkt = canonical_packet();
    pkt.data.write(c.offset, c.width, c.bad);
    fastpath::WireView w;
    EXPECT_FALSE(fastpath::inspect(pkt, 0, w)) << "offset " << c.offset;
  }
  // Truncated below the fixed header.
  packet::Packet runt = canonical_packet();
  runt.data.resize(fastpath::kIncHeaderBytes - 1);
  fastpath::WireView w;
  EXPECT_FALSE(fastpath::inspect(runt, 0, w));
}

TEST(FastpathInspect, MirrorsTheParseGraphLaneBudget) {
  // A 16-lane graph parses up to 16 elements; wider packets take the slow
  // path (where the parser's own rejection applies). A scalar graph (0)
  // leaves elements in the payload and accepts any count.
  const packet::Packet wide = canonical_packet(7, 17);
  fastpath::WireView w;
  EXPECT_FALSE(fastpath::inspect(wide, 16, w));
  EXPECT_TRUE(fastpath::inspect(wide, 0, w));
  const packet::Packet narrow = canonical_packet(7, 16);
  EXPECT_TRUE(fastpath::inspect(narrow, 16, w));
  // Element count claiming more bytes than the packet carries.
  packet::Packet lying = canonical_packet(7, 2);
  lying.data.write(43, 1, 9);
  EXPECT_FALSE(fastpath::inspect(lying, 16, w));
}

// --- FlowCache: hits, evictions, epoch-safe invalidation --------------------

fastpath::WireView view_of(std::uint32_t flow) {
  fastpath::WireView w;
  packet::Packet pkt = canonical_packet(flow);
  EXPECT_TRUE(fastpath::inspect(pkt, 0, w));
  return w;
}

TEST(FlowCache, ProbeMissFillHitAndSignatureIsExact) {
  fastpath::FlowCache cache(64);
  const fastpath::WireView w = view_of(1);
  EXPECT_EQ(cache.probe(w, 2, false), nullptr);
  cache.fill(w, 2, false, 5, 0, {120, 3, 7, 0});

  fastpath::FlowCache::Entry* e = cache.probe(w, 2, false);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->forward_port, 5u);
  EXPECT_EQ(e->timing.cycles, 120u);
  EXPECT_EQ(e->timing.max_service, 3u);
  EXPECT_EQ(e->timing.stall_cycles, 7u);

  // Same 5-tuple, different ingress port or query class: distinct entries.
  EXPECT_EQ(cache.probe(w, 3, false), nullptr);
  EXPECT_EQ(cache.probe(w, 2, true), nullptr);

  const auto& s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.occupancy, 1u);
}

TEST(FlowCache, CollisionDisplacesAndCountsEviction) {
  // Capacity 1: every signature maps to the single slot, so a second flow
  // must displace the first (direct-mapped, no chaining, no allocation).
  fastpath::FlowCache cache(1);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.fill(view_of(1), 0, false, 4, 0, {});
  cache.fill(view_of(2), 0, false, 5, 0, {});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().occupancy, 1u);

  EXPECT_EQ(cache.probe(view_of(1), 0, false), nullptr);  // displaced
  fastpath::FlowCache::Entry* e = cache.probe(view_of(2), 0, false);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->forward_port, 5u);
}

TEST(FlowCache, FibMutationInvalidatesThroughSync) {
  topo::ForwardingTable fib(1);
  fib.add_exact(topo::make_ip(0, 0, 1), 3);
  fastpath::FastpathContract c;
  c.route = [](std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t) {
    return packet::PortId{0};
  };
  c.fib_version = fib.version_ptr();

  fastpath::FlowCache cache(64);
  cache.sync(c);
  cache.fill(view_of(1), 0, false, 3, 0, {});
  cache.sync(c);  // nothing moved: entry survives
  EXPECT_NE(cache.probe(view_of(1), 0, false), nullptr);

  fib.add_exact(topo::make_ip(0, 0, 2), 4);  // any FIB edit bumps version
  cache.sync(c);
  EXPECT_EQ(cache.probe(view_of(1), 0, false), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().occupancy, 0u);
}

TEST(FlowCache, StoreStageAndCommitEachInvalidate) {
  mat::VersionedStore store(8);
  fastpath::FastpathContract c;
  c.route = [](std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t) {
    return packet::PortId{0};
  };
  c.store = &store;

  fastpath::FlowCache cache(64);
  cache.sync(c);
  cache.fill(view_of(1), 0, true, 3, 9, {});

  // stage() (a kCtrlUpdate arriving) already invalidates — the staleness
  // window must be attributed identically cache-on and cache-off.
  packet::ControlUpdate u;
  u.entries = {{packet::CtrlOp::kInstall, 42, 100}};
  store.stage(u, 0);
  cache.sync(c);
  EXPECT_EQ(cache.probe(view_of(1), 0, true), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  cache.fill(view_of(1), 0, true, 3, 9, {});
  store.commit(sim::kMicrosecond);  // the epoch flip
  cache.sync(c);
  EXPECT_EQ(cache.probe(view_of(1), 0, true), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

// --- copy-and-patch ---------------------------------------------------------

TEST(CopyPatch, ForwardPatchesOnlyTtl) {
  packet::Pool pool;
  packet::Packet original = canonical_packet();
  const packet::Buffer before = original.data;
  fastpath::WireView w;
  ASSERT_TRUE(fastpath::inspect(original, 0, w));

  packet::Packet out = fastpath::copy_patch(pool, std::move(original), w,
                                            fastpath::Patch::kForward);
  EXPECT_EQ(out.data.read(22, 1), packet::kIncInitialTtl - 1u);
  EXPECT_EQ(out.meta.flow_id, 7u);
  EXPECT_EQ(out.meta.coflow_id, 3u);
  // Every byte but the TTL is a straight copy.
  ASSERT_EQ(out.data.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i == 22) continue;
    EXPECT_EQ(out.data.read(i, 1), before.read(i, 1)) << "byte " << i;
  }
  EXPECT_EQ(pool.stats().released, 1u);  // the original went back to the pool
}

TEST(CopyPatch, ServedSwapsAddressesAndStampsChurnHit) {
  packet::Pool pool;
  packet::Packet original = canonical_packet();
  original.data.write(42, 1,
                      static_cast<std::uint64_t>(packet::IncOpcode::kChurnQuery));
  original.meta.flow_hash = 0xdead;
  fastpath::WireView w;
  ASSERT_TRUE(fastpath::inspect(original, 0, w));

  packet::Packet out = fastpath::copy_patch(pool, std::move(original), w,
                                            fastpath::Patch::kServed);
  EXPECT_EQ(out.data.read(22, 1), packet::kIncInitialTtl - 1u);
  EXPECT_EQ(out.data.read(42, 1),
            static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit));
  EXPECT_EQ(out.data.read(26, 4), w.ip_dst);  // reply: addresses swapped
  EXPECT_EQ(out.data.read(30, 4), w.ip_src);
  EXPECT_EQ(out.meta.flow_hash, 0u);  // tuple changed: cached ECMP hash stale
}

// --- end-to-end: cache on == cache off, byte for byte -----------------------

struct SteadyRun {
  std::uint64_t events = 0;
  sim::Time now = 0;
  std::uint64_t snapshot_hash = 0;
  std::string perfetto;
  fastpath::FlowCacheStats fp;
  std::uint64_t delivered = 0;
};

/// All-to-all rack coflow on a 2x2 leaf–spine, tracing armed, with
/// `fastpath_entries` caching (0 = off). Everything observable must be
/// independent of the knob.
SteadyRun run_steady(topo::SwitchKind kind, std::uint32_t fastpath_entries) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.kind = kind;
  p.profile.fastpath_entries = fastpath_entries;
  p.trace.sample_every = 2;
  topo::Network net(sim, p);

  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = 7;
  inc.packets_per_sender = 40;
  workload::start_rack_incast(hosts, inc, 0);

  SteadyRun r;
  r.events = sim.run();
  net.finalize_metrics();
  r.now = sim.now();
  r.snapshot_hash = fnv1a(net.metrics().snapshot().to_json("pin"));
  r.perfetto = sim::spans_to_perfetto(net.span_buffers());
  r.fp = net.fastpath_totals();
  r.delivered = net.total_host_rx_packets();
  EXPECT_EQ(net.total_host_rx_packets() + net.total_host_link_drops() +
                net.total_trunk_drops(),
            net.total_host_tx_packets());
  return r;
}

class FastpathEquivalence
    : public ::testing::TestWithParam<topo::SwitchKind> {};

TEST_P(FastpathEquivalence, CacheOnMatchesCacheOffByteForByte) {
  const SteadyRun off = run_steady(GetParam(), 0);
  const SteadyRun on = run_steady(GetParam(), 1024);

  // The cache is invisible: same events, same clock, same snapshot bytes,
  // same span trace — and it actually ran (hits dominate after warmup).
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(on.now, off.now);
  EXPECT_EQ(on.snapshot_hash, off.snapshot_hash);
  EXPECT_EQ(on.perfetto, off.perfetto);
  EXPECT_EQ(on.delivered, off.delivered);
  EXPECT_EQ(off.fp.hits + off.fp.misses, 0u);  // off really means off
  EXPECT_GT(on.fp.hits, on.fp.misses);
  EXPECT_GT(on.fp.occupancy, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FastpathEquivalence,
                         ::testing::Values(topo::SwitchKind::kRmt,
                                           topo::SwitchKind::kAdcp,
                                           topo::SwitchKind::kRtc),
                         [](const auto& info) {
                           switch (info.param) {
                             case topo::SwitchKind::kRmt: return "Rmt";
                             case topo::SwitchKind::kAdcp: return "Adcp";
                             default: return "Rtc";
                           }
                         });

TEST(FastpathExport, TotalsLandInAReportingRegistry) {
  const SteadyRun on = run_steady(topo::SwitchKind::kAdcp, 1024);
  ASSERT_GT(on.fp.hits, 0u);

  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.profile.fastpath_entries = 1024;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = 7;
  inc.packets_per_sender = 40;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();

  sim::MetricRegistry report;
  net.export_fastpath(report.scope("datapath"));
  const std::string json = report.snapshot().to_json("report");
  EXPECT_NE(json.find("datapath.fastpath.hits"), std::string::npos);
  EXPECT_NE(json.find("datapath.fastpath.hit_rate_pct"), std::string::npos);
  // The network's own snapshot never mentions the cache (the equality gate
  // compares those bytes cache-on vs cache-off).
  EXPECT_EQ(net.metrics().snapshot().to_json("pin").find("fastpath"),
            std::string::npos);
}

// --- zero-allocation hit path ----------------------------------------------

/// Steady-state forwarding with the cache hot must not allocate, on the
/// model whose slow path heap-allocates the most (ADCP spills a closure per
/// stage hop). This is the guard that keeps the fast path "allocation-free"
/// as the header promises: pooled fast slots, inline TX completions, byte
/// copies into recycled buffers.
TEST(FastpathZeroAlloc, SteadyStateHitsDoNotAllocate) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 2;
  p.kind = topo::SwitchKind::kAdcp;
  p.profile.fastpath_entries = 256;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  std::uint32_t seq = 0;
  // Balanced bidirectional cross-rack traffic so each rack's pool reclaims
  // what it spends (the test_topo idiom, now over the ADCP fast path).
  const auto burst = [&] {
    packet::IncPacketSpec spec;
    spec.inc.opcode = packet::IncOpcode::kPlain;
    for (std::uint32_t i = 0; i < 8; ++i) {
      spec.ip_src = hosts[0].ip;
      spec.ip_dst = hosts[2].ip;
      spec.inc.flow_id = 1;
      spec.udp_src = workload::rack_flow_udp_src(1);
      spec.inc.seq = seq;
      hosts[0].host->send_inc(spec, 0);
      spec.ip_src = hosts[2].ip;
      spec.ip_dst = hosts[0].ip;
      spec.inc.flow_id = 2;
      spec.udp_src = workload::rack_flow_udp_src(2);
      hosts[2].host->send_inc(spec, 0);
      ++seq;
    }
    sim.run();
  };

  for (int warm = 0; warm < 4; ++warm) burst();
  net.hops().reserve(net.hops().count() + 256);
  const fastpath::FlowCacheStats warm = net.fastpath_totals();
  ASSERT_GT(warm.hits, 0u) << "cache never engaged during warmup";

  const std::uint64_t before = test::allocations();
  for (int measured = 0; measured < 4; ++measured) burst();
  EXPECT_EQ(test::allocations() - before, 0u)
      << "fast-path steady state allocated " << (test::allocations() - before)
      << " times";

  // Every measured packet hit: 2 racks x 8 packets x 4 bursts x 2 cached
  // sites per traversed switch... just require all probes were hits.
  const fastpath::FlowCacheStats after = net.fastpath_totals();
  EXPECT_GT(after.hits, warm.hits);
  EXPECT_EQ(after.misses, warm.misses) << "measured window took a slow path";
  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
}

}  // namespace
}  // namespace adcp

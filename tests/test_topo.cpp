// topo:: subsystem — forwarding table semantics, trunk wiring, ECMP
// determinism, per-flow ordering, packet conservation across hops, a
// determinism pin (event count + final time + metric snapshot hash)
// mirroring test_event_count_determinism.cpp, and the zero-allocation
// warm-path guards with trunks in the forwarding chain (the counting
// allocator of tests/support sees every allocation in the process).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "coflow/tracker.hpp"
#include "packet/headers.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "support/alloc_counter.hpp"
#include "support/fabric.hpp"
#include "topo/network.hpp"
#include "topo/programs.hpp"
#include "topo/routing.hpp"
#include "workload/rack_coflow.hpp"

namespace adcp {
namespace {

using test::fnv1a;
using workload::rack_hosts;

std::uint64_t total_reordered(topo::Network& net) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < net.host_count(); ++i) total += net.host(i).rx_reordered();
  return total;
}

// --- ForwardingTable unit behavior ---------------------------------------

TEST(ForwardingTable, ExactBeatsPrefixAndLongestPrefixWins) {
  topo::ForwardingTable fib(1);
  fib.add_prefix(topo::kAddressBase, 8, {{9}});
  fib.add_prefix(topo::make_ip(0, 3, 0), 24, {{5}});
  fib.add_exact(topo::make_ip(0, 3, 7), 2);

  EXPECT_EQ(fib.lookup(topo::make_ip(0, 3, 7), 0, 0, 0), 2u);   // exact
  EXPECT_EQ(fib.lookup(topo::make_ip(0, 3, 1), 0, 0, 0), 5u);   // /24
  EXPECT_EQ(fib.lookup(topo::make_ip(0, 8, 1), 0, 0, 0), 9u);   // /8
  EXPECT_EQ(fib.lookup(0x0b00'0001, 0, 0, 0), topo::ForwardingTable::kNoRoute);
}

TEST(ForwardingTable, EcmpIsPerFlowStableAndCoversAllPorts) {
  topo::ForwardingTable fib(42);
  fib.add_prefix(topo::kAddressBase, 8, {{4, 5, 6, 7}});

  std::vector<std::uint64_t> hits(8, 0);
  for (std::uint16_t sport = 0; sport < 256; ++sport) {
    const packet::PortId first = fib.lookup(topo::make_ip(0, 1, 1), 99, sport, 7);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(fib.lookup(topo::make_ip(0, 1, 1), 99, sport, 7), first);
    }
    ASSERT_GE(first, 4u);
    ASSERT_LT(first, 8u);
    ++hits[first];
  }
  for (packet::PortId p = 4; p < 8; ++p) EXPECT_GT(hits[p], 0u) << "port " << p << " unused";
}

TEST(ForwardingTable, SeedChangesTheSpread) {
  topo::ForwardingTable a(1);
  topo::ForwardingTable b(2);
  a.add_prefix(topo::kAddressBase, 8, {{0, 1, 2, 3}});
  b.add_prefix(topo::kAddressBase, 8, {{0, 1, 2, 3}});
  int differ = 0;
  for (std::uint16_t sport = 0; sport < 64; ++sport) {
    if (a.lookup(topo::make_ip(0, 1, 1), 7, sport, 9) !=
        b.lookup(topo::make_ip(0, 1, 1), 7, sport, 9)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

// --- fabric construction --------------------------------------------------

TEST(TopoNetwork, LeafSpineShape) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 4;
  p.spines = 2;
  p.hosts_per_leaf = 16;
  topo::Network net(sim, p);

  EXPECT_EQ(net.switch_count(), 6u);
  EXPECT_EQ(net.trunk_count(), 8u);
  EXPECT_EQ(net.host_count(), 64u);
  EXPECT_EQ(net.device(0).port_count(), 18u);  // 16 hosts + 2 uplinks
  EXPECT_EQ(net.device(4).port_count(), 4u);   // spine: one port per leaf
  EXPECT_EQ(net.fabric(0).size(), 16u);
  EXPECT_EQ(net.fabric(4).size(), 0u);  // spines carry no hosts
  EXPECT_EQ(net.ip_of(0), topo::make_ip(0, 0, 0));
  EXPECT_EQ(net.ip_of(17), topo::make_ip(0, 1, 1));
}

TEST(TopoNetwork, FabricSubsetLeavesTrunkPortsHostless) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  // Sending to a cross-rack address must not be swallowed by a host on the
  // uplink port: the packet arrives at the real destination.
  workload::RackIncastParams inc;
  inc.sink = 5;  // leaf 1, host 1
  inc.senders = 1;
  inc.packets_per_sender = 3;
  auto hosts = rack_hosts(net);
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_EQ(net.host(5).rx_packets(), 3u);
  EXPECT_EQ(net.host(0).tx_packets(), 3u);
}

// --- ECMP path selection --------------------------------------------------

/// One flow must ride exactly one spine uplink; the choice repeats under
/// the same seed in an independently built fabric.
TEST(TopoEcmp, FlowSticksToOneUplinkDeterministically) {
  auto uplink_of = [](std::uint64_t ecmp_seed) -> std::vector<std::uint64_t> {
    sim::Simulator sim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 4;
    p.ecmp_seed = ecmp_seed;
    topo::Network net(sim, p);
    auto hosts = rack_hosts(net);
    workload::RackIncastParams inc;
    inc.sink = 6;  // leaf 1
    inc.senders = 1;  // host 0 only
    inc.packets_per_sender = 16;
    workload::start_rack_incast(hosts, inc, 0);
    sim.run();
    return {net.trunk_packets(0, 0), net.trunk_packets(1, 0)};
  };

  const auto first = uplink_of(0xfeedULL);
  const auto second = uplink_of(0xfeedULL);
  EXPECT_EQ(first, second);
  // All 16 packets of the single flow on exactly one of leaf 0's uplinks.
  EXPECT_EQ(first[0] + first[1], 16u);
  EXPECT_TRUE(first[0] == 0 || first[1] == 0) << first[0] << "/" << first[1];
}

TEST(TopoEcmp, ManyFlowsSpreadOverBothSpines) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 8;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 8;  // leaf 1
  inc.senders = 8;
  inc.packets_per_sender = 8;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_GT(net.trunk_packets(0, 0), 0u);
  EXPECT_GT(net.trunk_packets(1, 0), 0u);
  net.finalize_metrics();
  const double imbalance = net.scope().gauge("ecmp.imbalance").value();
  EXPECT_GE(imbalance, 1.0);
  EXPECT_LE(imbalance, 2.0);  // 2.0 = everything polarized on one uplink
}

// --- ordering, conservation, hops ----------------------------------------

TEST(TopoNetwork, CrossRackFlowsArriveInOrder) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  // Every host streams two interleaved flows to its cross-rack twin.
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  for (std::uint32_t src = 0; src < 8; ++src) {
    const std::uint32_t dst = (src + 4) % 8;
    spec.ip_src = hosts[src].ip;
    spec.ip_dst = hosts[dst].ip;
    for (std::uint32_t s = 0; s < 32; ++s) {
      for (std::uint32_t f = 0; f < 2; ++f) {  // interleave the two flows
        spec.inc.flow_id = 100 + src * 2 + f;
        spec.udp_src = workload::rack_flow_udp_src(spec.inc.flow_id);
        spec.inc.seq = s;
        hosts[src].host->send_inc(spec, 0);
      }
    }
  }
  sim.run();

  EXPECT_EQ(total_reordered(net), 0u);
  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
  EXPECT_EQ(net.total_host_tx_packets(), 8u * 32 * 2);
  EXPECT_EQ(net.total_trunk_drops(), 0u);
  // Every packet crossed leaf -> spine -> leaf.
  EXPECT_EQ(net.hops().count(), 8u * 32 * 2);
  EXPECT_EQ(net.hops().quantile(0.0), 3.0);
  EXPECT_EQ(net.hops().quantile(1.0), 3.0);
}

TEST(TopoNetwork, SameRackStaysOneHop) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 1;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 1;  // same leaf as the senders below
  inc.senders = 2;  // hosts 0 and 2 — both leaf 0
  inc.packets_per_sender = 4;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_EQ(net.hops().count(), 8u);
  EXPECT_EQ(net.hops().quantile(1.0), 1.0);
  EXPECT_EQ(net.trunk_packets(0, 0), 0u);  // nothing went upstairs
}

TEST(TopoNetwork, LossyTrunksConservePackets) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.trunk_link.loss_rate = 0.2;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  workload::RackIncastParams inc;
  inc.sink = 6;
  inc.senders = 7;
  inc.packets_per_sender = 32;
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();

  EXPECT_GT(net.total_trunk_drops(), 0u);
  EXPECT_EQ(net.total_host_tx_packets(),
            net.total_host_rx_packets() + net.total_trunk_drops() +
                net.total_host_link_drops());
  EXPECT_EQ(total_reordered(net), 0u);  // loss is not reordering
}

// --- all three switch tiers route ----------------------------------------

class TopoTiers : public ::testing::TestWithParam<topo::SwitchKind> {};

TEST_P(TopoTiers, CoflowCompletesAcrossRacks) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.kind = GetParam();
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  workload::RackIncastParams inc;
  inc.sink = 5;
  inc.senders = 7;
  inc.packets_per_sender = 8;
  tracker.start(workload::rack_incast_descriptor(inc, hosts.size()), 0);
  workload::start_rack_incast(hosts, inc, 0);
  sim.run();
  EXPECT_TRUE(tracker.all_complete());
  EXPECT_EQ(total_reordered(net), 0u);
  EXPECT_EQ(net.total_host_rx_packets(), net.total_host_tx_packets());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopoTiers,
                         ::testing::Values(topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp,
                                           topo::SwitchKind::kRtc));

// --- fat tree -------------------------------------------------------------

TEST(TopoNetwork, FatTreeRoutesAcrossPodsWithFiveHops) {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 4;
  p.kind = topo::SwitchKind::kRtc;
  topo::Network net(sim, p);
  EXPECT_EQ(net.host_count(), 16u);   // k^3/4
  EXPECT_EQ(net.switch_count(), 20u);  // 8 edge + 8 agg + 4 core
  EXPECT_EQ(net.trunk_count(), 32u);

  auto hosts = rack_hosts(net);
  // host 0 (pod 0) -> host 15 (pod 3): edge-agg-core-agg-edge.
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.ip_src = hosts[0].ip;
  spec.ip_dst = hosts[15].ip;
  spec.inc.flow_id = 1;
  for (std::uint32_t s = 0; s < 4; ++s) {
    spec.inc.seq = s;
    hosts[0].host->send_inc(spec, 0);
  }
  // host 2 -> host 1: same pod, different edge: edge-agg-edge.
  spec.ip_src = hosts[2].ip;
  spec.ip_dst = hosts[1].ip;
  spec.inc.flow_id = 2;
  for (std::uint32_t s = 0; s < 4; ++s) {
    spec.inc.seq = s;
    hosts[2].host->send_inc(spec, 0);
  }
  sim.run();
  EXPECT_EQ(net.host(15).rx_packets(), 4u);
  EXPECT_EQ(net.host(1).rx_packets(), 4u);
  EXPECT_EQ(net.hops().quantile(1.0), 5.0);
  EXPECT_EQ(net.hops().quantile(0.0), 3.0);
  EXPECT_EQ(total_reordered(net), 0u);
}

// --- determinism pin ------------------------------------------------------

/// Pins the exact event count, final time, and the FNV-1a hash of the full
/// metric snapshot of a small two-rack incast on the ADCP tier. Any change
/// to event ordering, routing, metric naming, or JSON formatting moves one
/// of these — bump deliberately with the simulator-determinism change that
/// caused it (see test_event_count_determinism.cpp).
constexpr std::uint64_t kPinnedEvents = 1018;
constexpr sim::Time kPinnedNow = 3'487'120;
constexpr std::uint64_t kPinnedHash = 993'120'951'399'456'147ull;

TEST(TopoDeterminism, EventCountTimeAndSnapshotHashPinned) {
  const auto run = [] {
    sim::Simulator sim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 4;
    topo::Network net(sim, p);
    auto hosts = rack_hosts(net);
    workload::RackIncastParams inc;
    inc.sink = 0;
    inc.senders = 7;
    inc.packets_per_sender = 8;
    workload::start_rack_incast(hosts, inc, 0);
    const std::uint64_t events = sim.run();
    net.finalize_metrics();
    const std::string json = net.metrics().snapshot().to_json("pin");
    return std::tuple{events, sim.now(), fnv1a(json)};
  };

  const auto [events, now, hash] = run();
  const auto [events2, now2, hash2] = run();
  EXPECT_EQ(events, events2);
  EXPECT_EQ(now, now2);
  EXPECT_EQ(hash, hash2);

  EXPECT_EQ(events, kPinnedEvents) << "events=" << events;
  EXPECT_EQ(now, kPinnedNow) << "now=" << now;
  EXPECT_EQ(hash, kPinnedHash) << "hash=" << hash;
}

// --- zero-allocation warm path -------------------------------------------

/// What one zero-allocation guard run observed.
struct WarmRun {
  std::uint64_t allocations = 0;  ///< during the measured bursts
  std::uint64_t host_tx = 0;
  std::uint64_t host_rx = 0;
  std::uint64_t reordered = 0;
  std::size_t ring_size = 0;      ///< span ring occupancy (traced runs)
  std::uint64_t ring_dropped = 0;
};

/// Steady-state cross-rack forwarding on a 2-leaf/2-spine fabric of `kind`
/// with the fast path off, so every packet takes the slow path
/// host -> leaf -> trunk -> spine -> trunk -> leaf -> host. Balanced
/// bidirectional bursts of `elems`-element INC packets let each rack's
/// pool reclaim what it spends; four warm bursts, then four measured ones.
/// `traced` samples every flow into a 64-span ring that wraps while
/// measured, so the record and overwrite-oldest paths are covered too.
WarmRun run_warm_bursts(topo::SwitchKind kind, std::uint32_t elems, bool traced) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 2;
  p.kind = kind;
  if (traced) {
    p.trace.sample_every = 1;
    p.trace.ring_capacity = 64;
  }
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  std::uint32_t seq = 0;
  packet::IncPacketSpec spec;  // built once: its element vector is the test's own
  spec.inc.opcode = packet::IncOpcode::kPlain;
  for (std::uint32_t e = 0; e < elems; ++e) spec.inc.elements.push_back({e, 100 + e});
  const auto burst = [&] {
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
  // Histograms keep every sample: pre-size them for the measured bursts.
  net.hops().reserve(net.hops().count() + 256);
  if (kind == topo::SwitchKind::kRtc) {
    for (std::size_t i = 0; i < net.switch_count(); ++i) {
      sim::Histogram& h = net.switch_scope(i).histogram("latency.residence_ps");
      h.reserve(h.count() + 256);
    }
  }

  WarmRun r;
  const std::uint64_t before = test::allocations();
  for (int measured = 0; measured < 4; ++measured) burst();
  r.allocations = test::allocations() - before;
  r.host_tx = net.total_host_tx_packets();
  r.host_rx = net.total_host_rx_packets();
  r.reordered = total_reordered(net);
  if (traced) {
    const std::vector<const sim::SpanBuffer*> bufs = net.span_buffers();
    EXPECT_EQ(bufs.size(), 1u);
    r.ring_size = bufs.at(0)->size();
    r.ring_dropped = bufs.at(0)->dropped();
  }
  return r;
}

/// Zero-element payloads through RMT: the original trunk-chain guard.
TEST(TopoZeroAlloc, SteadyStateTrunkForwardingDoesNotAllocate) {
  const WarmRun r = run_warm_bursts(topo::SwitchKind::kRmt, 0, false);
  EXPECT_EQ(r.allocations, 0u)
      << "steady-state trunk forwarding allocated " << r.allocations << " times";
  EXPECT_EQ(r.host_rx, r.host_tx);
  EXPECT_EQ(r.reordered, 0u);
}

/// The warm slow path of every switch model with 8-element payloads (PHV
/// arrays, element decode at the hosts), untraced and with a wrapping span
/// ring. A continuation that captures a PHV, or any per-packet vector,
/// shows up here as allocations.
class WarmSlowPath
    : public ::testing::TestWithParam<std::tuple<topo::SwitchKind, bool>> {};

TEST_P(WarmSlowPath, EightElementBurstsDoNotAllocate) {
  const auto [kind, traced] = GetParam();
  const WarmRun r = run_warm_bursts(kind, 8, traced);
  EXPECT_EQ(r.allocations, 0u) << "warm slow path allocated " << r.allocations << " times";
  EXPECT_EQ(r.host_rx, r.host_tx);
  EXPECT_EQ(r.reordered, 0u);
  if (traced) {
    EXPECT_EQ(r.ring_size, 64u);     // ring full...
    EXPECT_GT(r.ring_dropped, 0u);   // ...and wrapped (flight recorder)
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopoZeroAlloc, WarmSlowPath,
    ::testing::Combine(::testing::Values(topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp,
                                         topo::SwitchKind::kRtc),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<topo::SwitchKind, bool>>& info) {
      const topo::SwitchKind kind = std::get<0>(info.param);
      const char* name = kind == topo::SwitchKind::kRmt    ? "Rmt"
                         : kind == topo::SwitchKind::kAdcp ? "Adcp"
                                                           : "Rtc";
      return std::string(name) + (std::get<1>(info.param) ? "Traced" : "Untraced");
    });

// --- span chains across the fabric ----------------------------------------

/// One sampled cross-rack packet on the 4-leaf/2-spine fabric must leave a
/// connected span chain host.tx -> leaf -> trunk -> spine -> trunk -> leaf
/// -> host.rx under a single trace id, with flow arrows in the export.
TEST(TopoTracing, SampledPacketChainsHostLeafSpineLeafHost) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 4;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.trace.sample_every = 1;
  topo::Network net(sim, p);
  auto hosts = rack_hosts(net);

  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.ip_src = hosts[0].ip;
  spec.ip_dst = hosts[p.hosts_per_leaf].ip;  // first host of rack 1
  spec.inc.flow_id = 77;
  spec.udp_src = workload::rack_flow_udp_src(77);
  spec.inc.seq = 0;
  hosts[0].host->send_inc(spec, 0);
  sim.run();
  net.finalize_metrics();

  ASSERT_EQ(net.span_buffers().size(), 1u);
  const sim::SpanBuffer& buf = *net.span_buffers()[0];
  const std::uint64_t id = net.trace_sampler().trace_id(77, 0);

  // Collect the packet's spans in begin-time order (recording is already
  // chronological per component; a stable scan suffices for one packet).
  std::vector<sim::Span> chain;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf.at(i).trace_id == id) chain.push_back(buf.at(i));
  }
  std::stable_sort(chain.begin(), chain.end(),
                   [](const sim::Span& a, const sim::Span& b) { return a.begin < b.begin; });
  ASSERT_GE(chain.size(), 7u);  // tx + 3 switch traversals + 2 trunks + rx

  EXPECT_EQ(chain.front().kind, sim::SpanKind::kHostTx);
  EXPECT_EQ(chain.back().kind, sim::SpanKind::kHostRx);
  std::size_t trunks = 0;
  std::set<std::string> switches;
  for (const sim::Span& s : chain) {
    trunks += s.kind == sim::SpanKind::kTrunk;
    const std::string& comp = buf.component_names()[s.component];
    if (comp.find("host") == std::string::npos && comp.find("trunk") == std::string::npos &&
        (s.kind == sim::SpanKind::kRx || s.kind == sim::SpanKind::kTx)) {
      switches.insert(comp);
    }
  }
  EXPECT_EQ(trunks, 2u) << "leaf->spine and spine->leaf hops";
  EXPECT_EQ(switches.size(), 3u) << "leaf, spine, leaf";

  // Connected: every span starts no earlier than the previous one began,
  // and the chain is bracketed by the host send/deliver timestamps.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i - 1].begin, chain[i].begin);
    EXPECT_LE(chain[i].begin, chain[i].end);
  }
  EXPECT_LT(chain.front().begin, chain.back().begin);

  // The export draws the arrows: a flow start and finish with this id.
  char idbuf[32];
  std::snprintf(idbuf, sizeof(idbuf), "0x%llx", static_cast<unsigned long long>(id));
  const std::string json = sim::spans_to_perfetto(net.span_buffers());
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":\"" + std::string(idbuf) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"id\":\"" + std::string(idbuf) + "\""),
            std::string::npos);
}

}  // namespace
}  // namespace adcp

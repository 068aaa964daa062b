// telem:: subsystem — the INT observatory (DESIGN.md §14).
//
// Wire-format units (trailer stamp/decode, hop-budget truncation, the
// report and postcard codecs with their saturating fields), the tap hooks
// driven standalone (TX stamping, drop postcards, rate limiting, refused
// multicast replicas on RMT and ADCP), the
// PRECISION heavy-hitter sketch, the watermark max-merge satellite
// (Snapshot::merge) and the Perfetto counter-track exporter, then fabric
// end-to-end: disarmed profiles leave no trace (byte-identical snapshots),
// the collector reconstructs paths/depths from in-band reports on every
// switch architecture, armed runs stay bit-identical across PDES worker
// counts, and the RMT sketch actually recirculates for its claims.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "packet/headers.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "telem/collector.hpp"
#include "telem/int_format.hpp"
#include "telem/sketch.hpp"
#include "telem/tap.hpp"
#include "topo/network.hpp"

namespace adcp {
namespace {

packet::Packet data_packet(std::uint32_t flow_id = 7) {
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = flow_id;
  spec.inc.elements.push_back({1, 2});
  packet::Packet pkt = packet::make_inc_packet(spec);
  pkt.meta.flow_id = flow_id;
  return pkt;
}

telem::IntRecord record(std::uint16_t sw, std::uint32_t depth = 0,
                        std::uint32_t latency_ns = 0, std::uint8_t ecn = 0) {
  telem::IntRecord rec;
  rec.switch_id = sw;
  rec.ingress_port = static_cast<std::uint8_t>(sw + 1);
  rec.egress_port = static_cast<std::uint8_t>(sw + 2);
  rec.queue_depth = depth;
  rec.hop_latency_ns = latency_ns;
  rec.ecn = ecn;
  return rec;
}

// ----------------------------------------------------------- wire format --

TEST(IntTrailer, StampDecodeRoundTrip) {
  packet::Packet pkt = data_packet();
  const std::size_t base = pkt.size();
  EXPECT_FALSE(telem::has_int_trailer(pkt));
  EXPECT_EQ(telem::int_trailer_bytes(pkt), 0u);

  std::vector<telem::IntRecord> stamped;
  for (std::uint16_t h = 0; h < 3; ++h) {
    stamped.push_back(record(h, 100u * h, 500u + h, h == 2 ? 0x3 : 0));
    EXPECT_TRUE(telem::int_stamp(pkt, stamped.back()));
  }

  EXPECT_TRUE(telem::has_int_trailer(pkt));
  const std::size_t trailer =
      3 * telem::kIntRecordBytes + telem::kIntFooterBytes;
  EXPECT_EQ(telem::int_trailer_bytes(pkt), trailer);
  EXPECT_EQ(pkt.size(), base + trailer);

  std::vector<telem::IntRecord> out;
  EXPECT_EQ(telem::int_decode(pkt, out), 3u);
  EXPECT_EQ(out, stamped);  // front = first hop stamped
}

TEST(IntTrailer, HopBudgetTruncatesAndFlags) {
  packet::Packet pkt = data_packet();
  EXPECT_TRUE(telem::int_stamp(pkt, record(0), /*max_hops=*/2));
  EXPECT_TRUE(telem::int_stamp(pkt, record(1), 2));
  // Budget exhausted: the stamp fails and the newest resident record is
  // flagged so the collector can tell a short path from a clipped one.
  EXPECT_FALSE(telem::int_stamp(pkt, record(2), 2));

  std::vector<telem::IntRecord> out;
  EXPECT_EQ(telem::int_decode(pkt, out), 2u);
  EXPECT_EQ(out[0].flags, 0);
  EXPECT_EQ(out[1].flags & telem::kIntFlagTruncated, telem::kIntFlagTruncated);
}

TEST(IntTrailer, RejectsUnframedPackets) {
  packet::Packet bare;  // no Ethernet/IPv4/UDP/INC frame at all
  EXPECT_FALSE(telem::int_stamp(bare, record(0)));
  EXPECT_FALSE(telem::has_int_trailer(bare));
}

TEST(TelemReport, RoundTripQuantizesLatency) {
  // 1600 ns is an exact multiple of the 16 ns report unit; 7 ns rounds
  // down to zero. CE only survives as a bool.
  std::vector<telem::IntRecord> hops = {record(10, 123, 1600, 0x3),
                                        record(11, 0, 7, 0x1)};
  const packet::IncHeader inc = telem::make_report(42, 9, 5, hops);
  EXPECT_EQ(inc.opcode, packet::IncOpcode::kTelemReport);
  EXPECT_EQ(inc.elements.size(), hops.size() + 1);  // element 0 names the flow

  telem::Report report;
  ASSERT_TRUE(telem::decode_report(inc, report));
  EXPECT_EQ(report.flow_id, 42u);
  EXPECT_EQ(report.coflow_id, 9u);
  EXPECT_FALSE(report.truncated);
  ASSERT_EQ(report.hops.size(), 2u);
  EXPECT_EQ(report.hops[0].switch_id, 10u);
  EXPECT_EQ(report.hops[0].ingress_port, hops[0].ingress_port);
  EXPECT_EQ(report.hops[0].egress_port, hops[0].egress_port);
  EXPECT_EQ(report.hops[0].queue_depth, 123u);
  EXPECT_EQ(report.hops[0].hop_latency_ns, 1600u);
  EXPECT_TRUE(report.hops[0].ce);
  EXPECT_EQ(report.hops[1].hop_latency_ns, 0u);
  EXPECT_FALSE(report.hops[1].ce);  // ECT(1) is not CE
}

TEST(TelemReport, SaturatesAndCarriesTruncation) {
  telem::IntRecord big = record(1, 1u << 20, 0xffff'ffffu, 0x3);
  big.flags = telem::kIntFlagTruncated;
  const packet::IncHeader inc = telem::make_report(1, 0, 0, {big});

  telem::Report report;
  ASSERT_TRUE(telem::decode_report(inc, report));
  EXPECT_TRUE(report.truncated);
  ASSERT_EQ(report.hops.size(), 1u);
  EXPECT_EQ(report.hops[0].queue_depth, 0x7fffu);  // 15-bit depth field
  EXPECT_EQ(report.hops[0].hop_latency_ns,
            0xffffu * telem::kReportLatencyUnitNs);  // 16-bit latency field
}

TEST(TelemReport, DecodeRejectsMalformed) {
  telem::Report report;
  packet::IncHeader inc;  // wrong opcode
  EXPECT_FALSE(telem::decode_report(inc, report));
  inc = telem::make_report(1, 0, 0, {record(1)});
  inc.elements.pop_back();  // element count no longer matches hop count
  EXPECT_FALSE(telem::decode_report(inc, report));
}

TEST(TelemPostcard, RoundTrip) {
  telem::Postcard pc;
  pc.switch_id = 300;
  pc.kind = telem::PostcardKind::kDrop;
  pc.reason = static_cast<std::uint8_t>(sim::DropReason::kAdmission);
  pc.ingress_port = 3;
  pc.egress_port = 17;
  pc.hop = 2;
  pc.flow_id = 0xdead'beef;
  pc.coflow_id = 44;
  pc.queue_depth = 9001;

  const packet::IncHeader inc = telem::make_postcard(pc);
  EXPECT_EQ(inc.opcode, packet::IncOpcode::kTelemPostcard);
  telem::Postcard out;
  ASSERT_TRUE(telem::decode_postcard(inc, out));
  EXPECT_EQ(out, pc);

  packet::IncHeader wrong;
  EXPECT_FALSE(telem::decode_postcard(wrong, out));
}

// ------------------------------------------------------------- tap hooks --

telem::TelemetryProfile armed_profile() {
  telem::TelemetryProfile t;
  t.armed = true;
  t.postcard_min_gap = 100 * sim::kNanosecond;
  return t;
}

TEST(TelemetryTap, StampsEligibleTrafficAtTx) {
  std::vector<packet::Packet> emitted;
  telem::TapConfig cfg;
  cfg.switch_id = 5;
  cfg.profile = armed_profile();
  cfg.collector_ip = 0x0a00'00ff;
  cfg.emit = [&emitted](packet::Packet p) { emitted.push_back(std::move(p)); };
  telem::TelemetryTap tap(std::move(cfg), sim::Scope{});

  packet::Packet pkt = data_packet(21);
  pkt.meta.arrival = 1000 * sim::kNanosecond;
  pkt.meta.set_telem_depth(6);
  tap.at_tx(pkt, pkt.meta.arrival + 250 * sim::kNanosecond, /*egress=*/2);

  EXPECT_EQ(tap.stamps(), 1u);
  std::vector<telem::IntRecord> out;
  ASSERT_EQ(telem::int_decode(pkt, out), 1u);
  EXPECT_EQ(out[0].switch_id, 5u);
  EXPECT_EQ(out[0].egress_port, 2u);
  EXPECT_EQ(out[0].queue_depth, 6u);
  EXPECT_EQ(out[0].hop_latency_ns, 250u);
  EXPECT_TRUE(emitted.empty());  // no CE, no drop: no postcard

  // The tap's exact ledgers saw the packet too.
  ASSERT_EQ(tap.flow_truth().size(), 1u);
  EXPECT_EQ(tap.flow_truth()[0], (std::pair<std::uint64_t, std::uint64_t>{21, 1}));
  EXPECT_EQ(tap.exact_depth().count(), 1u);
}

TEST(TelemetryTap, IgnoresTelemetryAndControlPackets) {
  telem::TapConfig cfg;
  cfg.profile = armed_profile();
  telem::TelemetryTap tap(std::move(cfg), sim::Scope{});

  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kTelemReport;  // >= kCtrlUpdate class
  packet::Packet pkt = packet::make_inc_packet(spec);
  tap.at_tx(pkt, 0, 0);
  EXPECT_EQ(tap.stamps(), 0u);  // never stamp telemetry-about-telemetry
  EXPECT_FALSE(telem::has_int_trailer(pkt));
}

TEST(TelemetryTap, DropPostcardsAreRateLimited) {
  std::vector<packet::Packet> emitted;
  telem::TapConfig cfg;
  cfg.switch_id = 8;
  cfg.profile = armed_profile();
  cfg.collector_ip = 0x0a00'00ff;
  cfg.source_ip = 0x0a00'0008;
  cfg.emit = [&emitted](packet::Packet p) { emitted.push_back(std::move(p)); };
  telem::TelemetryTap tap(std::move(cfg), sim::Scope{});

  packet::Packet pkt = data_packet(33);
  pkt.meta.set_telem_depth(4);
  const sim::Time t0 = 1000 * sim::kNanosecond;
  tap.on_drop(pkt, sim::DropReason::kAdmission, t0);
  tap.on_drop(pkt, sim::DropReason::kAdmission, t0 + 10 * sim::kNanosecond);
  tap.on_drop(pkt, sim::DropReason::kAdmission, t0 + 200 * sim::kNanosecond);

  // Gap is 100 ns: the middle drop is suppressed, the ledger still sees 3.
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(tap.postcards(), 2u);

  packet::IncHeader inc;
  ASSERT_TRUE(packet::decode_inc(emitted[0], inc));
  telem::Postcard pc;
  ASSERT_TRUE(telem::decode_postcard(inc, pc));
  EXPECT_EQ(pc.switch_id, 8u);
  EXPECT_EQ(pc.kind, telem::PostcardKind::kDrop);
  EXPECT_EQ(pc.reason, static_cast<std::uint8_t>(sim::DropReason::kAdmission));
  EXPECT_EQ(pc.flow_id, 33u);
  EXPECT_EQ(pc.queue_depth, 4u);
}

// ---------------------------------------------------------------- sketch --

/// A multicast group fanned out into a tiny TM: every replica the buffer
/// refuses must reach the tap as a kAdmission drop, on RMT (replicas
/// admitted per egress port) exactly as on ADCP (replicas admitted to
/// TM2). Returns {TM admission drops, drops the tap saw, TM multicast
/// copies}.
template <typename Switch, typename Config, typename Program>
std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> multicast_incast(const Config& cfg,
                                                                         Program program) {
  sim::Simulator sim;
  Switch sw(sim, cfg);
  sw.load_program(std::move(program));
  sw.set_multicast_group(3, {1, 3, 5});
  sw.set_tx_handler([](packet::PortId, packet::Packet) {});
  telem::TapConfig tc;
  tc.profile.armed = true;
  telem::TelemetryTap tap(std::move(tc), sw.metric_scope().scope("telem"));
  sw.set_telemetry_tap(&tap);

  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kGroupXfer;
  spec.inc.worker_id = 3;  // the group
  spec.pad_to = 1000;
  for (std::uint32_t round = 0; round < 200; ++round) {
    for (const packet::PortId port : {0u, 2u, 4u, 6u, 7u}) {
      spec.inc.seq = round;
      sw.inject(port, packet::make_inc_packet(spec));
    }
  }
  sim.run();
  const sim::Snapshot snap = sw.metrics().snapshot();
  const std::string& prefix = sw.metric_scope().prefix();
  const auto count = [&](const std::string& name) {
    return static_cast<std::uint64_t>(snap.value(prefix + "." + name));
  };
  return {count("tm.drops.admission") + count("tm1.drops.admission") +
              count("tm2.drops.admission"),
          count("telem.drops_seen"), count("tm.multicast_copies")};
}

TEST(TelemetryTap, SeesEveryRefusedMulticastReplica) {
  rmt::RmtConfig rc;
  rc.port_count = 8;
  rc.pipeline_count = 2;
  rc.tm_buffer_bytes = 8192;
  const auto [rmt_drops, rmt_seen, rmt_copies] =
      multicast_incast<rmt::RmtSwitch>(rc, rmt::group_comm_program(rc));
  EXPECT_EQ(rmt_drops, 2554u);
  EXPECT_EQ(rmt_seen, rmt_drops);
  EXPECT_EQ(rmt_copies + rmt_drops, 1000u * 3);  // every replica admitted or refused

  core::AdcpConfig ac;
  ac.port_count = 8;
  ac.tm2_buffer_bytes = 8192;
  const auto [adcp_drops, adcp_seen, adcp_copies] =
      multicast_incast<core::AdcpSwitch>(ac, core::group_comm_program(ac));
  EXPECT_EQ(adcp_drops, 2461u);
  EXPECT_EQ(adcp_seen, adcp_drops);
  EXPECT_EQ(adcp_copies, 0u);  // ADCP replicates before TM2, as unicast
}

TEST(HeavyHitterSketch, EmptySlotClaimIsCertain) {
  telem::HeavyHitterSketch sk(telem::SketchConfig{});
  // min_count == 0: the lottery is 1/(0+1), so the first packet of any
  // key always claims — and a second packet increments as the owner.
  EXPECT_TRUE(sk.update(1, 0));
  EXPECT_FALSE(sk.update(1, 1));
  EXPECT_EQ(sk.claims(), 1u);
  EXPECT_EQ(sk.updates(), 2u);
  ASSERT_EQ(sk.entries().size(), 1u);
  EXPECT_EQ(sk.entries()[0], (std::pair<std::uint64_t, std::uint64_t>{1, 2}));
  EXPECT_TRUE(sk.probe(1).owner);
}

TEST(HeavyHitterSketch, SkewedStreamTopKRecall) {
  telem::SketchConfig cfg;
  cfg.ways = 4;
  cfg.slots = 8;
  telem::HeavyHitterSketch sk(cfg);

  // 8 heavy keys at 200 packets vs 40 light keys at 2, interleaved the
  // way a fabric would see them. Deterministic (fixed seed, no RNG).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> truth;
  for (std::uint64_t k = 0; k < 8; ++k) truth.push_back({100 + k, 200});
  for (std::uint64_t k = 0; k < 40; ++k) truth.push_back({500 + k, 2});
  std::uint64_t seq = 0;
  for (std::uint64_t round = 0; round < 200; ++round) {
    for (std::uint64_t k = 0; k < 8; ++k) sk.update(100 + k, seq++);
    if (round < 2) {
      for (std::uint64_t k = 0; k < 40; ++k) sk.update(500 + k, seq++);
    }
  }

  const telem::SketchScore score = telem::score_heavy_hitters(sk, truth, 8);
  EXPECT_GE(score.recall, 0.9);
  EXPECT_GE(score.precision, 0.9);
}

// ------------------------------------------- snapshot merge + trace tracks --

TEST(SnapshotMerge, WatermarkTakesMaxGaugeAdds) {
  sim::MetricRegistry a;
  sim::MetricRegistry b;
  a.watermark("tm.buffer.watermark_bytes").set(4096);
  b.watermark("tm.buffer.watermark_bytes").set(16384);
  a.gauge("load").set(1.0);
  b.gauge("load").set(2.0);
  b.counter("only_b").add(3);

  sim::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  // Watermarks are peaks of the same physical quantity: max, not sum.
  EXPECT_EQ(merged.value("tm.buffer.watermark_bytes"), 16384.0);
  EXPECT_EQ(merged.value("load"), 3.0);  // plain gauges still add
  EXPECT_EQ(merged.value("only_b"), 3.0);  // one-sided entries copy verbatim

  // Merge order must not matter for the max.
  sim::Snapshot reversed = b.snapshot();
  reversed.merge(a.snapshot());
  EXPECT_EQ(reversed.value("tm.buffer.watermark_bytes"), 16384.0);

  const sim::Snapshot::Entry* entry = merged.find("tm.buffer.watermark_bytes");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, sim::MetricKind::kWatermark);
}

TEST(PerfettoExport, CounterTracksRideAlongsideSpans) {
  sim::SpanBuffer buf;
  buf.enable(16);
  const sim::SpanRecorder rec = buf.recorder("sw0");
  rec.span(sim::SpanKind::kTx, 1, 1000, 2000);
  const std::vector<const sim::SpanBuffer*> bufs{&buf};

  // Empty counter list: byte-identical to the counter-less overload, so
  // existing trace consumers never see a schema change.
  EXPECT_EQ(sim::spans_to_perfetto(bufs, {}, 1e-6), sim::spans_to_perfetto(bufs, 1e-6));

  sim::CounterSeries series;
  series.track = "sw0.tm.buffer.watermark_bytes";
  series.times = {1000, 2000};
  series.values = {0.0, 4096.0};
  const std::string json = sim::spans_to_perfetto(bufs, {series}, 1e-6);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("sw0.tm.buffer.watermark_bytes"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans still there
}

// ------------------------------------------------------------ end to end --

topo::TierProfile fabric_profile(bool armed, bool sketch, bool tweak_inert = false) {
  topo::TierProfile p;
  p.fastpath_entries = 0;
  p.telemetry.armed = armed;
  if (armed) {
    p.telemetry.report_sample_every = 2;
    p.telemetry.postcard_min_gap = 100 * sim::kNanosecond;
  }
  if (sketch) {
    p.telemetry.sketch = true;
    // Deliberately undersized (8 entries for ~20 offered flows) so claim
    // take-overs — recirculations on RMT — are guaranteed.
    p.telemetry.sketch_ways = 2;
    p.telemetry.sketch_slots = 4;
  }
  if (tweak_inert) {
    // Every knob but `armed` perturbed; none may leave a trace.
    p.telemetry.max_hops = 2;
    p.telemetry.report_sample_every = 7;
    p.telemetry.postcard_min_gap = 0;
    p.telemetry.sketch_ways = 6;
    p.telemetry.seed = 0xdead'beef;
  }
  return p;
}

topo::LeafSpineParams fabric_params(topo::SwitchKind kind, const topo::TierProfile& prof) {
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.kind = kind;
  p.profile = prof;
  return p;
}

/// Skewed incast into host 0; the last host stays idle (it is the
/// collector when armed, and keeping it quiet makes off/on comparable).
void start_incast(topo::Network& net) {
  for (std::size_t h = 1; h + 1 < net.host_count(); ++h) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      const std::uint32_t flow_id = static_cast<std::uint32_t>(h) * 4 + f;
      packet::IncPacketSpec spec;
      spec.ip_src = net.ip_of(h);
      spec.ip_dst = net.ip_of(0);
      spec.udp_src = static_cast<std::uint16_t>(40'000 + flow_id);
      spec.inc.opcode = packet::IncOpcode::kPlain;
      spec.inc.flow_id = flow_id;
      spec.inc.coflow_id = 1;
      const std::uint32_t packets = f == 0 ? 20 : 3;
      for (std::uint32_t s = 0; s < packets; ++s) {
        spec.inc.seq = s;
        spec.inc.elements.clear();
        for (std::uint32_t e = 0; e < 4; ++e) spec.inc.elements.push_back({s * 4 + e, flow_id});
        net.host(h).send_inc(spec, 0);
      }
    }
  }
}

struct RunResult {
  sim::Time now = 0;
  std::string snapshot_json;
};

RunResult run_sequential(topo::SwitchKind kind, const topo::TierProfile& prof) {
  sim::Simulator sim;
  topo::Network net(sim, fabric_params(kind, prof));
  start_incast(net);
  sim.run();
  net.finalize_metrics();
  return {sim.now(), net.merged_snapshot().to_json("telem")};
}

TEST(TelemetryFabric, DisarmedKnobsLeaveNoTrace) {
  // armed == false must make every other telemetry knob inert: identical
  // final time and byte-identical merged snapshot.
  const RunResult base = run_sequential(topo::SwitchKind::kAdcp, fabric_profile(false, false));
  const RunResult tweaked =
      run_sequential(topo::SwitchKind::kAdcp, fabric_profile(false, false, /*tweak_inert=*/true));
  EXPECT_EQ(base.now, tweaked.now);
  EXPECT_EQ(base.snapshot_json, tweaked.snapshot_json);
}

TEST(TelemetryFabric, CollectorReconstructsPathsOnEveryArchitecture) {
  for (const topo::SwitchKind kind :
       {topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp, topo::SwitchKind::kRtc}) {
    sim::Simulator sim;
    topo::Network net(sim, fabric_params(kind, fabric_profile(true, false)));
    start_incast(net);
    sim.run();
    net.finalize_metrics();

    // Every switch stamped, the collector heard about it in-band.
    for (std::size_t i = 0; i < net.switch_count(); ++i) {
      ASSERT_NE(net.telemetry_tap_of(i), nullptr);
      EXPECT_GT(net.telemetry_tap_of(i)->stamps(), 0u) << "switch " << i;
    }
    telem::Collector* collector = net.collector();
    ASSERT_NE(collector, nullptr);
    EXPECT_GT(collector->reports(), 0u);
    EXPECT_GT(collector->report_hops(), collector->reports());  // multi-hop paths
    EXPECT_FALSE(collector->paths().empty());
    EXPECT_FALSE(collector->switches().empty());
    // Every reported path in this 2-tier fabric is leaf or leaf-spine-leaf.
    for (const auto& [path, count] : collector->paths()) {
      EXPECT_GE(path.size(), 1u);
      EXPECT_LE(path.size(), 3u);
      EXPECT_GT(count, 0u);
    }
  }
}

TEST(TelemetryFabric, ArmedRunsMatchAcrossWorkerCounts) {
  const topo::TierProfile prof = fabric_profile(true, true);
  RunResult reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    sim::ParallelSimulator psim(workers);
    topo::Network net(psim, fabric_params(topo::SwitchKind::kAdcp, prof));
    start_incast(net);
    psim.run();
    net.finalize_metrics();
    RunResult r{psim.now(), net.merged_snapshot().to_json("telem")};
    if (workers == 1) {
      reference = std::move(r);
      continue;
    }
    EXPECT_EQ(r.now, reference.now) << workers << " workers";
    EXPECT_EQ(r.snapshot_json, reference.snapshot_json) << workers << " workers";
  }
}

TEST(TelemetryFabric, RmtSketchClaimsViaRecirculation) {
  sim::Simulator sim;
  topo::Network net(sim, fabric_params(topo::SwitchKind::kRmt, fabric_profile(true, true)));
  start_incast(net);
  sim.run();
  net.finalize_metrics();

  // The undersized sketch forces claim take-overs; on RMT each one is a
  // recirculated second pass, visible in the switch recirculation counter.
  std::uint64_t updates = 0;
  std::uint64_t claims = 0;
  for (std::size_t i = 0; i < net.switch_count(); ++i) {
    ASSERT_NE(net.sketch_of(i), nullptr);
    updates += net.sketch_of(i)->updates();
    claims += net.sketch_of(i)->claims();
  }
  EXPECT_GT(updates, 0u);
  EXPECT_GT(claims, 0u);
  const sim::Snapshot snap = net.merged_snapshot();
  double recirculations = 0;
  for (const sim::Snapshot::Entry& e : snap.entries()) {
    if (e.name.find("recirc") != std::string::npos) recirculations += e.value;
  }
  EXPECT_GT(recirculations, 0.0);
}

}  // namespace
}  // namespace adcp

// RMT-specific tests: structural restrictions (Fig. 2), recirculation
// accounting, line-rate behaviour versus the design packet size, and
// multicast.
#include <gtest/gtest.h>

#include <numeric>

#include "net/host.hpp"
#include "packet/headers.hpp"
#include "rmt/config.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace adcp::rmt {
namespace {

RmtConfig small_config() {
  RmtConfig cfg;
  cfg.port_count = 16;
  cfg.pipeline_count = 4;
  cfg.port_gbps = 100.0;
  cfg.clock_ghz = 1.25;
  return cfg;
}

TEST(RmtConfig, PortToPipelineMapping) {
  const RmtConfig cfg = small_config();
  EXPECT_EQ(cfg.ports_per_pipeline(), 4u);
  EXPECT_EQ(cfg.pipeline_of_port(0), 0u);
  EXPECT_EQ(cfg.pipeline_of_port(3), 0u);
  EXPECT_EQ(cfg.pipeline_of_port(4), 1u);
  EXPECT_EQ(cfg.pipeline_of_port(15), 3u);
}

TEST(RmtConfig, IngressConvergenceRule) {
  const RmtConfig cfg = small_config();
  const packet::PortId same[] = {0, 1, 3};
  EXPECT_TRUE(cfg.can_converge_ingress(same));
  const packet::PortId cross[] = {0, 1, 4};  // port 4 is pipeline 1
  EXPECT_FALSE(cfg.can_converge_ingress(cross));
  EXPECT_TRUE(cfg.can_converge_ingress({}));
}

TEST(RmtConfig, ReachablePortsOfEgressPipe) {
  const RmtConfig cfg = small_config();
  EXPECT_EQ(cfg.reachable_ports(2), (std::vector<packet::PortId>{8, 9, 10, 11}));
}

TEST(RmtConfig, RequiredClockTracksDesignPacket) {
  RmtConfig cfg = small_config();
  cfg.design_min_packet_bytes = 64;  // +20 wire overhead = 84
  // 4 ports x 100G / (84 B * 8) = 0.595 Bpps.
  EXPECT_NEAR(cfg.required_clock_ghz(), 0.595, 0.001);
  cfg.design_min_packet_bytes = 475;  // 495 on the wire
  EXPECT_NEAR(cfg.required_clock_ghz(), 0.101, 0.001);
}

TEST(RmtSwitch, LineRateAtDesignPacketSize) {
  // 4 ports/pipe at 100G, 1.25 GHz -> line rate holds for >=160 B wire
  // packets (Table 2 row 2 geometry).
  sim::Simulator sim;
  RmtConfig cfg = small_config();
  RmtSwitch sw(sim, cfg);
  sw.load_program(forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  workload::SyntheticParams traffic;
  traffic.packet_bytes = 160;
  traffic.packets_per_host = 300;
  traffic.stride = 5;  // crosses pipelines
  workload::run_permutation_traffic(fabric, traffic);
  sim.run();

  EXPECT_EQ(sw.stats().tx_packets, 16u * 300);
  // Aggregate egress ~= offered load (16 x 100G); allow scheduling slack.
  EXPECT_GT(sw.achieved_tx_gbps(), 0.85 * 16 * 100.0);
}

TEST(RmtSwitch, UndersizedPacketsBreakLineRate) {
  // Table-2 geometry pushed past its design point: 16 ports multiplexed
  // into ONE 1.25 GHz pipeline is line-rate at 160 B (1.25 Bpps) but 84 B
  // packets offer 16x100G/(84*8) = 2.38 Bpps — the clock cannot keep up.
  sim::Simulator sim;
  RmtConfig cfg = small_config();
  cfg.pipeline_count = 1;  // 16 ports per pipeline
  RmtSwitch sw(sim, cfg);
  sw.load_program(forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  workload::SyntheticParams traffic;
  traffic.packet_bytes = 84;
  traffic.packets_per_host = 500;
  traffic.stride = 1;
  workload::run_permutation_traffic(fabric, traffic);
  sim.run();

  // All packets eventually flow (queues absorb), but the achieved rate is
  // pinned by the pipeline clock: 1.25 Gpps x 84 B x 8 = 840 Gbps max.
  const double offered_gbps = 16 * 100.0;
  EXPECT_LT(sw.achieved_tx_gbps(), 0.60 * offered_gbps);
  EXPECT_GT(sw.achieved_tx_gbps(), 0.40 * offered_gbps);
}

TEST(RmtSwitch, RecirculationCountsBandwidth) {
  sim::Simulator sim;
  const RmtConfig cfg = small_config();
  RmtSwitch sw(sim, cfg);

  RmtAggOptions agg;
  agg.workers = 2;
  agg.mode = RmtAggMode::kRecirculate;
  agg.agg_port = 0;
  agg.report = std::make_shared<RmtAggReport>();
  sw.load_program(scalar_aggregation_program(cfg, agg));
  sw.set_multicast_group(1, {0, 4});

  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  // Two workers on different pipelines contribute one scalar each.
  for (std::uint32_t w : {0u, 4u}) {
    packet::IncPacketSpec spec;
    spec.inc.opcode = packet::IncOpcode::kAggUpdate;
    spec.inc.seq = 0;
    spec.inc.worker_id = w;
    spec.inc.flow_id = w + 1;
    spec.inc.elements.push_back({1, w + 10});
    fabric.host(w).send_inc(spec);
  }
  sim.run();

  EXPECT_EQ(sw.stats().recirculations, 2u);
  EXPECT_EQ(sw.stats().recirc_bytes, 2 * packet::inc_packet_bytes(1));
  EXPECT_EQ(agg.report->results_emitted, 1u);
  EXPECT_EQ(fabric.host(0).rx_packets(), 1u);
  EXPECT_EQ(fabric.host(4).rx_packets(), 1u);
}

TEST(RmtSwitch, RecirculationLimitDropsRunaways) {
  sim::Simulator sim;
  RmtConfig cfg = small_config();
  cfg.max_recirculations = 3;
  RmtSwitch sw(sim, cfg);

  // Pathological program: always recirculate INC packets.
  RmtProgram prog;
  prog.setup_ingress = [](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [](packet::Phv& phv, pipeline::Stage&) -> std::uint64_t {
      phv.set(packet::fields::kMetaEgressPort, 0);
      phv.set(packet::fields::kMetaRecirc, 1);
      return 1;
    });
  };
  sw.load_program(std::move(prog));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  packet::IncPacketSpec spec;
  spec.inc.elements.push_back({1, 1});
  fabric.host(3).send_inc(spec);
  sim.run();

  EXPECT_EQ(sw.stats().recirc_limit_drops, 1u);
  EXPECT_EQ(sw.stats().recirculations, 3u);
  EXPECT_EQ(sw.stats().tx_packets, 0u);
}

TEST(RmtSwitch, MulticastFromIngressReachesAllPipelines) {
  sim::Simulator sim;
  const RmtConfig cfg = small_config();
  RmtSwitch sw(sim, cfg);
  sw.load_program(group_comm_program(cfg));
  std::vector<packet::PortId> everyone(16);
  std::iota(everyone.begin(), everyone.end(), 0);
  sw.set_multicast_group(3, everyone);

  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kGroupXfer;
  spec.inc.worker_id = 3;  // group id
  spec.inc.elements.push_back({1, 1});
  fabric.host(5).send_inc(spec);
  sim.run();

  for (std::uint32_t h = 0; h < 16; ++h) {
    EXPECT_EQ(fabric.host(h).rx_packets(), 1u) << "host " << h;
  }
  EXPECT_EQ(sw.traffic_manager().stats().multicast_copies, 16u);
}

TEST(RmtSwitch, TmSharedBufferDropsUnderOversubscription) {
  sim::Simulator sim;
  RmtConfig cfg = small_config();
  cfg.tm_buffer_bytes = 4096;  // tiny buffer
  cfg.tm_alpha = 16.0;
  RmtSwitch sw(sim, cfg);
  sw.load_program(forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  // 15 hosts all target host 0: 15:1 incast.
  for (std::uint32_t s = 1; s < 16; ++s) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      packet::IncPacketSpec spec;
      spec.ip_dst = 0x0a000000;
      spec.inc.flow_id = s;
      spec.inc.seq = i;
      spec.pad_to = 300;
      fabric.host(s).send_inc(spec);
    }
  }
  sim.run();

  EXPECT_GT(sw.traffic_manager().stats().dropped, 0u);
  EXPECT_LT(fabric.host(0).rx_packets(), 15u * 50);
  EXPECT_GT(fabric.host(0).rx_packets(), 0u);
}

TEST(RmtSwitch, UnrolledParseMovesElementsToScalars) {
  const packet::ParseGraph g = scalar_unrolled_parse_graph(4);
  const packet::Parser parser(&g);
  packet::IncPacketSpec spec;
  for (std::uint32_t i = 0; i < 4; ++i) spec.inc.elements.push_back({i + 1, (i + 1) * 10});
  const packet::ParseResult r = parser.parse(packet::make_inc_packet(spec));
  ASSERT_TRUE(r.accepted);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.phv.get(packet::fields::user_field(2 * i)), i + 1);
    EXPECT_EQ(r.phv.get(packet::fields::user_field(2 * i + 1)), (i + 1) * 10);
  }
}

TEST(RmtSwitch, UnrolledDeparserRoundTrips) {
  const packet::ParseGraph g = scalar_unrolled_parse_graph(3);
  const packet::Parser parser(&g);
  const packet::Deparser dep = scalar_unrolled_deparser(3);
  packet::IncPacketSpec spec;
  for (std::uint32_t i = 0; i < 3; ++i) spec.inc.elements.push_back({i, i * 7});
  const packet::Packet pkt = packet::make_inc_packet(spec);
  const packet::ParseResult r = parser.parse(pkt);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(dep.deparse(r.phv, pkt, r.consumed).data, pkt.data);
}

TEST(RmtSwitch, MappingTableReplicationConsumesSram) {
  sim::Simulator sim;
  const RmtConfig cfg = small_config();
  RmtSwitch sw(sim, cfg);

  RmtAggOptions agg;
  agg.workers = 2;
  agg.mode = RmtAggMode::kSamePipe;
  agg.elems_per_packet = 8;
  agg.install_mapping_tables = true;
  agg.mapping_table_blocks = 8;
  agg.mapping_table_capacity = 64;
  agg.report = std::make_shared<RmtAggReport>();
  sw.load_program(scalar_aggregation_program(cfg, agg));

  EXPECT_TRUE(agg.report->tables_installed);
  // Fig. 3: 8 copies x 8 blocks.
  EXPECT_EQ(agg.report->sram_blocks_used, 64u);
}

TEST(RmtSwitch, MappingTableReplicationCanExhaustSram) {
  sim::Simulator sim;
  RmtConfig cfg = small_config();
  cfg.stage.sram_blocks = 40;  // not enough for 16 copies of 8 blocks
  RmtSwitch sw(sim, cfg);

  RmtAggOptions agg;
  agg.workers = 2;
  agg.mode = RmtAggMode::kSamePipe;
  agg.elems_per_packet = 16;
  agg.install_mapping_tables = true;
  agg.mapping_table_blocks = 8;
  agg.mapping_table_capacity = 64;
  agg.report = std::make_shared<RmtAggReport>();
  sw.load_program(scalar_aggregation_program(cfg, agg));

  EXPECT_FALSE(agg.report->tables_installed);
  EXPECT_EQ(agg.report->sram_blocks_used, 40u);  // filled to the brim
}

}  // namespace
}  // namespace adcp::rmt

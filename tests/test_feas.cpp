// Unit tests for the feasibility models: the Table-2/3 scaling arithmetic,
// the g-cell congestion estimator, and the multi-clock MAT model.
#include <gtest/gtest.h>

#include "feas/chip.hpp"
#include "feas/gcell.hpp"
#include "feas/multiclock.hpp"
#include "feas/scaling.hpp"

namespace adcp::feas {
namespace {

TEST(ScalingModel, OriginalRmtSingle10GPipeline) {
  // Paper §2: 64x10G in one pipeline ≈ 952 Mpps at 84 B -> 0.952 GHz.
  EXPECT_NEAR(ScalingModel::required_pps(64, 10.0, 84) / 1e6, 952.4, 0.5);
  EXPECT_NEAR(ScalingModel::required_clock_ghz(64, 10.0, 84), 0.952, 0.001);
}

TEST(ScalingModel, SixteenHundredGigPortNeeds238Ghz) {
  // Paper §3.3: a 1.6 Tbps port is ~2.38 Bpps at minimum size.
  EXPECT_NEAR(ScalingModel::required_pps(1, 1600.0, 84) / 1e9, 2.38, 0.01);
}

TEST(ScalingModel, MinPacketInvertsClock) {
  const std::uint32_t pkt = ScalingModel::min_packet_bytes(16, 100.0, 1.25);
  EXPECT_EQ(pkt, 160u);
  // Round-trip: at that packet size the clock suffices.
  EXPECT_LE(ScalingModel::required_clock_ghz(16, 100.0, pkt), 1.25 + 1e-9);
}

TEST(ScalingModel, MaxPortsPerPipelineInverts) {
  EXPECT_NEAR(ScalingModel::max_ports_per_pipeline(100.0, 160, 1.25), 16.0, 1e-9);
  EXPECT_NEAR(ScalingModel::max_ports_per_pipeline(1600.0, 84, 1.19), 0.5, 0.01);
}

TEST(Table2, MatchesPaperRows) {
  const auto rows = table2_design_points();
  ASSERT_EQ(rows.size(), 5u);
  // Paper: 84, 160, 247, 495, 495 (within rounding of the model).
  EXPECT_NEAR(rows[0].min_packet_bytes, 84, 1);
  EXPECT_NEAR(rows[1].min_packet_bytes, 160, 1);
  EXPECT_NEAR(rows[2].min_packet_bytes, 247, 1);
  EXPECT_NEAR(rows[3].min_packet_bytes, 495, 2);
  EXPECT_NEAR(rows[4].min_packet_bytes, 495, 2);
  // Structural columns are fixed by the paper.
  EXPECT_EQ(rows[4].pipelines, 8u);
  EXPECT_DOUBLE_EQ(rows[4].ports_per_pipeline, 4.0);
}

TEST(Table2, MinPacketGrowsMonotonically) {
  const auto rows = table2_design_points();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].min_packet_bytes, rows[i - 1].min_packet_bytes);
  }
}

TEST(Table3, MatchesPaperRows) {
  const auto rows = table3_design_points();
  ASSERT_EQ(rows.size(), 4u);
  // Paper: 1.62 / 0.60 / 1.62 / 1.19 GHz.
  EXPECT_NEAR(rows[0].clock_ghz, 1.62, 0.01);
  EXPECT_NEAR(rows[1].clock_ghz, 0.60, 0.01);
  EXPECT_NEAR(rows[2].clock_ghz, 1.62, 0.01);
  EXPECT_NEAR(rows[3].clock_ghz, 1.19, 0.01);
}

TEST(Table3, DemuxHalvesClockVersusFullPort) {
  // 1:2 demux -> half the packet rate of the whole port.
  const double full = ScalingModel::required_clock_ghz(1, 800.0, 84);
  const double demux = ScalingModel::required_clock_ghz(0.5, 800.0, 84);
  EXPECT_NEAR(demux, full / 2.0, 1e-9);
}

TEST(GcellGrid, SingleNetRoutesAnL) {
  GcellGrid g(10, 10, 10.0);
  const auto a = g.add_block(Block{"a", 0, 0, 1, 1});
  const auto b = g.add_block(Block{"b", 8, 8, 1, 1});
  g.add_net(Net{a, b, 5});
  const CongestionReport r = g.route();
  EXPECT_GT(r.peak, 0.0);
  EXPECT_LE(r.peak, 1.0);
  EXPECT_EQ(r.overflowed_cells, 0u);
}

TEST(GcellGrid, ConvergingNetsOverflowSharedCells) {
  GcellGrid g(16, 16, 4.0);
  const auto center = g.add_block(Block{"tm", 7, 7, 2, 2});
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto p = g.add_block(Block{'p' + std::to_string(i), i * 2, 0, 1, 1});
    g.add_net(Net{p, center, 8});
  }
  const CongestionReport r = g.route();
  EXPECT_GT(r.peak, 1.0);
  EXPECT_GT(r.overflowed_cells, 0u);
}

TEST(Floorplans, InterleavedBeatsMonolithicOnPeakCongestion) {
  // The §4 claim: spreading the TM across the layout eases congestion.
  for (const std::uint32_t pipes : {8u, 16u, 32u}) {
    const auto mono = monolithic_tm_floorplan(pipes, 64, 32.0).route();
    const auto inter = interleaved_tm_floorplan(pipes, 64, 32.0).route();
    EXPECT_LT(inter.peak, mono.peak) << pipes << " pipes";
  }
}

TEST(MultiClock, RequiredMemoryClockScalesWithWidth) {
  const MultiClockMatModel m{1.0, 3.2};
  EXPECT_DOUBLE_EQ(m.required_memory_ghz(8), 8.0);
  EXPECT_FALSE(m.feasible(8));
  EXPECT_TRUE(m.feasible(3));
  EXPECT_EQ(m.max_width(), 3u);
}

TEST(MultiClock, SlowPipeAllowsWiderArrays) {
  // The ADCP edge clocks are low (0.6 GHz per Table 3) — which buys width.
  const MultiClockMatModel slow{0.6, 3.2};
  EXPECT_EQ(slow.max_width(), 5u);
  const MultiClockMatModel fast{1.62, 3.2};
  EXPECT_EQ(fast.max_width(), 1u);  // RMT-speed pipes get no serial width
}

TEST(MultiClock, LookupsPerCycleSaturates) {
  const MultiClockMatModel m{1.0, 4.0};
  EXPECT_EQ(m.lookups_per_cycle(2), 2u);
  EXPECT_EQ(m.lookups_per_cycle(16), 4u);
}

TEST(Proxies, PowerScalesWithFrequencyAndElements) {
  EXPECT_DOUBLE_EQ(dynamic_power_proxy(2.0, 100), 200.0);
  // Demuxed ADCP: twice the pipes at half the clock = same dynamic power.
  EXPECT_DOUBLE_EQ(dynamic_power_proxy(1.62, 4), dynamic_power_proxy(0.81, 8));
}

TEST(Proxies, CrossbarAreaQuadraticInWidth) {
  EXPECT_DOUBLE_EQ(crossbar_area_proxy(16, 4) / crossbar_area_proxy(8, 4), 4.0);
}

TEST(ChipBudget, CountsElementsAndSram) {
  ChipSpec s;
  s.pipelines = 4;
  s.stages_per_pipeline = 10;
  s.maus_per_stage = 16;
  s.sram_blocks_per_stage = 80;
  s.traffic_managers = 1;
  s.clock_ghz = 1.0;
  const ChipBudget b = chip_budget(s);
  EXPECT_EQ(b.mau_count, 640u);
  EXPECT_EQ(b.sram_blocks, 3200u);
  EXPECT_DOUBLE_EQ(b.dynamic_power, 640.0 + 160.0);  // + one TM's worth
  EXPECT_DOUBLE_EQ(b.interconnect_area, 0.0);
}

TEST(ChipBudget, AdcpReferenceCarriesArrayCrossbarAndTwoTms) {
  const ChipBudget rmt = chip_budget(rmt_25t_reference());
  const ChipBudget adcp = chip_budget(adcp_25t_reference());
  EXPECT_GT(adcp.mau_count, rmt.mau_count);       // more, slower pipelines
  EXPECT_GT(adcp.interconnect_area, 0.0);         // §3.2's price
  EXPECT_EQ(rmt.interconnect_area, 0.0);
  // Per-element power is LOWER on ADCP (the §4 low-clock argument).
  EXPECT_LT(adcp.dynamic_power / static_cast<double>(adcp.mau_count),
            rmt.dynamic_power / static_cast<double>(rmt.mau_count));
}

}  // namespace
}  // namespace adcp::feas

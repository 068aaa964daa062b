// Fabric construction: shared switch templates + first-touch state
// (DESIGN.md §11).
//
//  * First-touch equivalence — a register file that materializes on first
//    write reads exactly like a zero-filled vector under every operation:
//    lazy state must be observationally invisible.
//  * Graph sharing — every switch that keeps its model's default parse
//    graph / deparser holds the one process-wide pair, fabric or not.
//  * Construction budget — a fat_tree(8) build reserves gigabytes of
//    simulated state but touches (materializes) almost none of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "chassis/chassis.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "mat/register.hpp"
#include "mat/state_accounting.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "rtc/programs.hpp"
#include "rtc/rtc_switch.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"
#include "topo/tier_profile.hpp"

namespace adcp {
namespace {

// --- TierProfile API ------------------------------------------------------

TEST(TierProfile, PipelineCountFoldedIntoRmtConfig) {
  const topo::TierProfile p;
  // Largest of {4, 2, 1} dividing the port count (the former
  // topo-internal rmt_pipelines_for helper, now part of the profile API).
  EXPECT_EQ(topo::TierProfile::rmt_pipelines_for(8), 4u);
  EXPECT_EQ(topo::TierProfile::rmt_pipelines_for(6), 2u);
  EXPECT_EQ(topo::TierProfile::rmt_pipelines_for(3), 1u);
  EXPECT_EQ(p.rmt(8).pipeline_count, 4u);
  EXPECT_EQ(p.rmt(8).port_count, 8u);
  EXPECT_EQ(p.adcp(6).port_count, 6u);
  EXPECT_EQ(p.rtc(6).port_count, 6u);
}

// --- first-touch register file --------------------------------------------

TEST(RegisterFileLazy, MaterializesOnFirstWriteOnly) {
  const std::uint64_t touched0 = mat::StateAccounting::touched_bytes();
  const std::uint64_t reserved0 = mat::StateAccounting::reserved_bytes();
  mat::RegisterFile rf(1024);
  EXPECT_EQ(mat::StateAccounting::reserved_bytes() - reserved0, 1024u * 8u);
  EXPECT_EQ(mat::StateAccounting::touched_bytes() - touched0, 0u);
  EXPECT_FALSE(rf.materialized());
  // Reads and zero-fills do not materialize.
  EXPECT_EQ(rf.peek(17), 0u);
  rf.fill(0);
  EXPECT_FALSE(rf.materialized());
  // The first write does.
  rf.poke(17, 42);
  EXPECT_TRUE(rf.materialized());
  EXPECT_EQ(rf.peek(17), 42u);
  EXPECT_EQ(rf.peek(16), 0u);
  EXPECT_EQ(mat::StateAccounting::touched_bytes() - touched0, 1024u * 8u);
}

/// The reference semantics of each AluOp, applied to a plain cell.
std::uint64_t reference_apply(mat::AluOp op, std::uint64_t& cell, std::uint64_t operand) {
  const std::uint64_t old = cell;
  switch (op) {
    case mat::AluOp::kRead:
      return old;
    case mat::AluOp::kWrite:
      cell = operand;
      return old;
    case mat::AluOp::kAdd:
      return cell += operand;
    case mat::AluOp::kMax:
      return cell = std::max(cell, operand);
    case mat::AluOp::kMin:
      return cell = std::min(cell, operand);
    case mat::AluOp::kCas:
      if (cell == 0) cell = operand;
      return old;
    case mat::AluOp::kAndOr:
      return cell = (cell & (operand >> 32)) | (operand & 0xffff'ffffULL);
  }
  return 0;
}

/// A first-touch file against a plain zero-filled vector: a seeded mix of
/// all seven ALU ops, peek, poke, fill(0) and fill(v), starting on an
/// unmaterialized file, must return the same value at every step and hold
/// the same cells after every step — materializing must not disturb the
/// cells the op did not name.
TEST(RegisterFileLazy, MatchesZeroedVectorUnderEveryOp) {
  constexpr std::size_t kCells = 64;
  constexpr std::uint64_t kAluOps = 7;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    mat::RegisterFile rf(kCells);
    std::vector<std::uint64_t> ref(kCells, 0);
    sim::Rng rng(seed);
    for (int step = 0; step < 1000; ++step) {
      const std::size_t i = rng.index(kCells);
      // Half the operands are tiny so kCas, kMin and kMax see zeros and ties.
      const std::uint64_t v = step % 2 == 0 ? rng.uniform(0, 3) : rng.uniform(0, ~0ULL);
      // Weights: ALU ops 21/32, peek 6/32, poke 3/32, fill(0) and fill(v)
      // 1/32 each, so fills reset the file without dominating it.
      const std::uint64_t pick = rng.uniform(0, 31);
      if (pick < 3 * kAluOps) {
        const auto op = static_cast<mat::AluOp>(pick % kAluOps);
        EXPECT_EQ(rf.apply(op, i, v), reference_apply(op, ref[i], v))
            << "step " << step << " op " << pick % kAluOps << " cell " << i;
      } else if (pick < 27) {
        EXPECT_EQ(rf.peek(i), ref[i]) << "step " << step << " peek cell " << i;
      } else if (pick < 30) {
        rf.poke(i, v);
        ref[i] = v;
      } else {
        const std::uint64_t fill = pick == 30 ? 0 : v;
        rf.fill(fill);
        std::fill(ref.begin(), ref.end(), fill);
      }
      for (std::size_t c = 0; c < kCells; ++c) {
        ASSERT_EQ(rf.peek(c), ref[c]) << "after step " << step << ", cell " << c;
      }
    }
  }
}

// --- template sharing -----------------------------------------------------

TEST(ConstructionTemplates, IdenticalSwitchesShareOneParseGraph) {
  // A switch that keeps its model's default parse graph and deparser holds
  // the process-wide pair for that lane width: standalone switches, fabric
  // switches and fabric templates all point at the same objects.
  sim::Simulator solo;
  rmt::RmtConfig rc;
  rmt::RmtSwitch rmt_sw(solo, rc);
  rmt_sw.load_program(rmt::forward_program(rc));
  core::AdcpConfig ac;
  core::AdcpSwitch adcp_sw(solo, ac);
  adcp_sw.load_program(core::forward_program(ac));
  rtc::RtcConfig tc;
  rtc::RtcSwitch rtc_sw(solo, tc);
  rtc_sw.load_program(rtc::forward_program(tc));
  const std::map<topo::SwitchKind, const chassis::Chassis*> standalone = {
      {topo::SwitchKind::kRmt, &rmt_sw},
      {topo::SwitchKind::kAdcp, &adcp_sw},
      {topo::SwitchKind::kRtc, &rtc_sw}};
  // Lane widths 0, 16 and 64: three graphs, one deparser.
  EXPECT_NE(rmt_sw.parse_graph().get(), adcp_sw.parse_graph().get());
  EXPECT_NE(adcp_sw.parse_graph().get(), rtc_sw.parse_graph().get());
  EXPECT_EQ(rmt_sw.deparser().get(), adcp_sw.deparser().get());
  EXPECT_EQ(adcp_sw.deparser().get(), rtc_sw.deparser().get());

  for (const auto& [kind, own] : standalone) {
    sim::Simulator sim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 4;
    p.kind = kind;
    topo::Network net(sim, p);
    const auto leaf_tmpl = net.template_of(kind, 6);
    ASSERT_NE(leaf_tmpl, nullptr);
    EXPECT_EQ(leaf_tmpl->parse.get(), own->parse_graph().get()) << static_cast<int>(kind);
    EXPECT_EQ(leaf_tmpl->deparse.get(), own->deparser().get()) << static_cast<int>(kind);
    for (std::size_t i = 0; i < net.switch_count(); ++i) {
      const auto& sw = dynamic_cast<const chassis::Chassis&>(net.device(i));
      EXPECT_EQ(sw.parse_graph().get(), own->parse_graph().get()) << "switch " << i;
      EXPECT_EQ(sw.deparser().get(), own->deparser().get()) << "switch " << i;
    }
  }
}

TEST(ConstructionTemplates, ProgramWithItsOwnGraphKeepsIt) {
  // The scalar aggregation program unrolls its INC elements into its own
  // parse graph and deparser; the switch installs those, not the defaults.
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  rmt::RmtAggOptions agg;
  agg.report = std::make_shared<rmt::RmtAggReport>();
  rmt::RmtProgram prog = rmt::scalar_aggregation_program(cfg, agg);
  const packet::ParseGraph* graph = prog.shared_parse.get();
  const packet::Deparser* deparser = prog.shared_deparse.get();
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(std::move(prog));
  EXPECT_EQ(sw.parse_graph().get(), graph);
  EXPECT_EQ(sw.deparser().get(), deparser);
  EXPECT_NE(graph, packet::shared_standard_parse_graph<rmt::kRmtParseLanes>().get());
  EXPECT_NE(deparser, packet::shared_standard_deparser().get());
}

TEST(ConstructionTemplates, SharingWorksAcrossKinds) {
  for (const topo::SwitchKind kind :
       {topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp, topo::SwitchKind::kRtc}) {
    sim::Simulator sim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 2;
    p.kind = kind;
    topo::Network net(sim, p);
    EXPECT_EQ(net.construction().templates_built, 2u) << static_cast<int>(kind);
    EXPECT_EQ(net.construction().templates_shared, 2u) << static_cast<int>(kind);
  }
}

// --- construction budget --------------------------------------------------

/// A fat_tree(8) — 80 switches — must reserve the full simulated
/// state (gigabytes) while materializing essentially none of it at build
/// time: routing programs only install match entries. The ceiling is
/// pinned; raise it deliberately with any change that adds a legitimate
/// construction-time register write. Pipeline stages are first-touch too:
/// of the 80 x 36 pipelines x 12 stages declared, the routing program
/// names only stage 0 of each switch's 4 central pipes.
TEST(ConstructionBudget, SlimFatTree8BuildStaysUnderTouchCeiling) {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 8;
  topo::Network net(sim, p);
  EXPECT_EQ(net.switch_count(), 80u);

  const auto& c = net.construction();
  EXPECT_GT(c.bytes_reserved, 1ull << 30) << "fleet state no longer accounted?";
  EXPECT_LE(c.bytes_touched, 1ull << 20) << "construction now materializes state";
  EXPECT_EQ(c.stages_declared, 34'560u);
  EXPECT_EQ(c.stages_materialized, 320u) << "construction builds stages no program names";
  // 80 switches of one shape share one template.
  EXPECT_EQ(c.templates_built, 1u);
  EXPECT_EQ(c.templates_shared, 79u);
}

}  // namespace
}  // namespace adcp

// Fabric construction: shared switch templates + first-touch state
// (DESIGN.md §11).
//
//  * Template sharing — identical switches in one fabric reference a
//    single parse graph / deparser, observed through shared_ptr refcounts.
//  * First-touch equivalence — an eager (TierProfile::full) and a lazy
//    (TierProfile::slim) fat_tree(4) allreduce produce byte-identical
//    metric snapshots AND byte-identical span traces: lazy state must be
//    observationally invisible.
//  * Construction budget — a slim fat_tree(8) build reserves gigabytes of
//    simulated state but touches (materializes) almost none of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/adcp_switch.hpp"
#include "mat/register.hpp"
#include "mat/state_accounting.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "topo/network.hpp"
#include "topo/tier_profile.hpp"
#include "workload/rack_coflow.hpp"

namespace adcp {
namespace {

std::vector<workload::RackHost> rack_hosts(topo::Network& net) {
  std::vector<workload::RackHost> hosts;
  hosts.reserve(net.host_count());
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  return hosts;
}

// --- TierProfile API ------------------------------------------------------

TEST(TierProfile, PresetsAndParse) {
  const topo::TierProfile slim = topo::TierProfile::slim();
  const topo::TierProfile full = topo::TierProfile::full();
  EXPECT_FALSE(slim.eager_state);
  EXPECT_TRUE(slim.share_templates);
  EXPECT_TRUE(full.eager_state);
  EXPECT_FALSE(full.share_templates);
}

TEST(TierProfile, PipelineCountFoldedIntoRmtConfig) {
  const topo::TierProfile p = topo::TierProfile::slim();
  // Largest of {4, 2, 1} dividing the port count (the former
  // topo-internal rmt_pipelines_for helper, now part of the profile API).
  EXPECT_EQ(topo::TierProfile::rmt_pipelines_for(8), 4u);
  EXPECT_EQ(topo::TierProfile::rmt_pipelines_for(6), 2u);
  EXPECT_EQ(topo::TierProfile::rmt_pipelines_for(3), 1u);
  EXPECT_EQ(p.rmt(8).pipeline_count, 4u);
  EXPECT_EQ(p.rmt(8).port_count, 8u);
  EXPECT_EQ(p.adcp(6).port_count, 6u);
  EXPECT_EQ(p.rtc(6).port_count, 6u);
  // The eager flag threads into the per-stage configs.
  const topo::TierProfile f = topo::TierProfile::full();
  EXPECT_TRUE(f.adcp(6).edge_stage.eager_state);
  EXPECT_TRUE(f.adcp(6).central_stage.eager_state);
  EXPECT_TRUE(f.rmt(8).stage.eager_state);
  EXPECT_TRUE(f.rtc(6).eager_state);
  EXPECT_FALSE(p.adcp(6).edge_stage.eager_state);
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

TEST(RegisterFileLazy, EagerFlagRestoresConstructionTouch) {
  const std::uint64_t touched0 = mat::StateAccounting::touched_bytes();
  mat::RegisterFile rf(256, /*eager=*/true);
  EXPECT_TRUE(rf.materialized());
  EXPECT_EQ(mat::StateAccounting::touched_bytes() - touched0, 256u * 8u);
}

// --- template sharing -----------------------------------------------------

TEST(ConstructionTemplates, IdenticalSwitchesShareOneParseGraph) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  topo::Network net(sim, p);

  // Two shapes: leaves (4 hosts + 2 uplinks = 6 ports) and spines (2
  // ports). 4 switches over 2 templates = 2 builds + 2 cache hits.
  EXPECT_EQ(net.construction().templates_built, 2u);
  EXPECT_EQ(net.construction().templates_shared, 2u);

  const auto leaf_tmpl = net.template_of(topo::SwitchKind::kAdcp, 6);
  ASSERT_NE(leaf_tmpl, nullptr);
  // The template holds one ref, each of the two leaves holds one.
  EXPECT_EQ(leaf_tmpl->parse.use_count(), 3);
  EXPECT_EQ(leaf_tmpl->deparse.use_count(), 3);

  auto* leaf0 = dynamic_cast<core::AdcpSwitch*>(&net.device(0));
  auto* leaf1 = dynamic_cast<core::AdcpSwitch*>(&net.device(1));
  ASSERT_NE(leaf0, nullptr);
  ASSERT_NE(leaf1, nullptr);
  EXPECT_EQ(leaf0->parse_graph().get(), leaf1->parse_graph().get());
  EXPECT_EQ(leaf0->parse_graph().get(), leaf_tmpl->parse.get());
  EXPECT_EQ(leaf0->deparser().get(), leaf_tmpl->deparse.get());
}

TEST(ConstructionTemplates, FullProfileDisablesSharing) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 1;
  p.hosts_per_leaf = 2;
  p.profile = topo::TierProfile::full();
  // Shrink the eager stages so the full-profile arm stays test-sized.
  p.profile.adcp_base.edge_stage.register_cells = 64;
  p.profile.adcp_base.central_stage.register_cells = 64;
  p.profile.adcp_base.central_stage.array->register_cells = 64;
  topo::Network net(sim, p);

  auto* leaf0 = dynamic_cast<core::AdcpSwitch*>(&net.device(0));
  auto* leaf1 = dynamic_cast<core::AdcpSwitch*>(&net.device(1));
  ASSERT_NE(leaf0, nullptr);
  ASSERT_NE(leaf1, nullptr);
  EXPECT_NE(leaf0->parse_graph().get(), leaf1->parse_graph().get());
  EXPECT_EQ(leaf0->parse_graph().use_count(), 1);
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

// --- first-touch equivalence ----------------------------------------------

struct ArmResult {
  std::string snapshot;
  std::string trace;
  bool complete = false;
  std::uint64_t reserved = 0;
  std::uint64_t touched = 0;
};

/// One fat_tree(4) allreduce under `profile`. Both arms shrink the
/// register files the same way so the eager arm stays test-sized; the
/// comparison is eager-vs-lazy, not big-vs-small.
ArmResult run_fat_tree_allreduce(topo::TierProfile profile) {
  profile.rmt_base.stage.register_cells = 256;
  profile.adcp_base.edge_stage.register_cells = 256;
  profile.adcp_base.central_stage.register_cells = 256;
  profile.adcp_base.central_stage.array->register_cells = 256;

  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 4;
  p.profile = profile;
  p.trace.sample_every = 1;  // trace every flow: byte-compare the spans too
  topo::Network net(sim, p);

  ArmResult r;
  r.reserved = net.construction().bytes_reserved;
  r.touched = net.construction().bytes_touched;

  auto hosts = rack_hosts(net);
  workload::RackAllReduceParams ar;
  ar.ps = 0;
  ar.workers = {1, 5, 10, 15};  // every pod participates
  ar.vector_len = 64;
  workload::RackAllReduce allreduce(ar);
  allreduce.attach(hosts, sim);
  allreduce.start(0);
  sim.run();
  net.finalize_metrics();

  r.complete = allreduce.complete();
  r.snapshot = net.merged_snapshot().to_json("equiv");
  r.trace = sim::spans_to_perfetto(net.span_buffers());
  return r;
}

TEST(ConstructionEquivalence, EagerAndLazyFatTreeAllreduceAreBitIdentical) {
  const ArmResult lazy = run_fat_tree_allreduce(topo::TierProfile::slim());
  const ArmResult eager = run_fat_tree_allreduce(topo::TierProfile::full());

  ASSERT_TRUE(lazy.complete);
  ASSERT_TRUE(eager.complete);
  // The observable outputs must match byte for byte.
  EXPECT_EQ(lazy.snapshot, eager.snapshot);
  EXPECT_EQ(lazy.trace, eager.trace);
  // ...while the arms really did build differently: both declared the same
  // state, but only the eager arm materialized all of it up front.
  EXPECT_EQ(lazy.reserved, eager.reserved);
  EXPECT_EQ(eager.touched, eager.reserved);
  EXPECT_LT(lazy.touched, eager.touched / 10);
}

// --- construction budget --------------------------------------------------

/// A slim fat_tree(8) — 80 switches — must reserve the full simulated
/// state (gigabytes) while materializing essentially none of it at build
/// time: routing programs only install match entries. The ceiling is
/// pinned; raise it deliberately with any change that adds a legitimate
/// construction-time register write.
TEST(ConstructionBudget, SlimFatTree8BuildStaysUnderTouchCeiling) {
  sim::Simulator sim;
  topo::FatTreeParams p;
  p.k = 8;
  topo::Network net(sim, p);
  EXPECT_EQ(net.switch_count(), 80u);

  const auto& c = net.construction();
  EXPECT_GT(c.bytes_reserved, 1ull << 30) << "fleet state no longer accounted?";
  EXPECT_LE(c.bytes_touched, 1ull << 20) << "construction now materializes state";
  // 80 switches of one shape share one template.
  EXPECT_EQ(c.templates_built, 1u);
  EXPECT_EQ(c.templates_shared, 79u);
}

}  // namespace
}  // namespace adcp

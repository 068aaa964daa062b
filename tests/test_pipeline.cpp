// Unit tests for stages and the pipeline timing model.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mat/action.hpp"
#include "mat/state_accounting.hpp"
#include "packet/fields.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stage.hpp"
#include "sim/random.hpp"

namespace adcp::pipeline {
namespace {

namespace f = packet::fields;

StageConfig small_stage() {
  StageConfig c;
  c.mau_count = 4;
  c.sram_blocks = 10;
  c.register_cells = 16;
  return c;
}

TEST(Stage, AddMauBoundedByCountAndSram) {
  Stage stage(0, small_stage());
  for (int i = 0; i < 4; ++i) {
    mat::ExactTable t(4);
    EXPECT_TRUE(stage.add_mau(mat::MatchActionUnit('m' + std::to_string(i), f::kUser0,
                                                   std::move(t)),
                              2));
  }
  // MAU budget exhausted.
  mat::ExactTable t(4);
  EXPECT_FALSE(stage.add_mau(mat::MatchActionUnit("m5", f::kUser0, std::move(t)), 1));
  EXPECT_EQ(stage.mau_count(), 4u);
  EXPECT_EQ(stage.memory().used_blocks(), 8u);
}

TEST(Stage, AddMauFailsOnSramExhaustion) {
  Stage stage(0, small_stage());
  mat::ExactTable t1(4);
  EXPECT_TRUE(stage.add_mau(mat::MatchActionUnit("a", f::kUser0, std::move(t1)), 8));
  mat::ExactTable t2(4);
  EXPECT_FALSE(stage.add_mau(mat::MatchActionUnit("b", f::kUser0, std::move(t2)), 8));
  EXPECT_EQ(stage.mau_count(), 1u);  // failed add left no MAU behind
}

TEST(Stage, RunMausInAttachOrder) {
  Stage stage(0, small_stage());
  mat::ExactTable t1(2);
  t1.insert(0, mat::actions::set_field(f::kUser1, 1));
  stage.add_mau(mat::MatchActionUnit("first", f::kUser0, std::move(t1)), 1);
  mat::ExactTable t2(2);
  t2.insert(1, mat::actions::set_field(f::kUser1, 2));  // keyed on kUser1 set by first
  stage.add_mau(mat::MatchActionUnit("second", f::kUser1, std::move(t2)), 1);

  packet::Phv phv;
  phv.set(f::kUser0, 0);
  stage.run_maus(phv);
  EXPECT_EQ(phv.get(f::kUser1), 2u);  // second saw first's write
}

TEST(Stage, ArrayEngineOnlyWhenConfigured) {
  Stage plain(0, small_stage());
  EXPECT_EQ(plain.array_engine(), nullptr);

  StageConfig with = small_stage();
  with.array = mat::ArrayEngineConfig{};
  Stage arr(1, with);
  EXPECT_NE(arr.array_engine(), nullptr);
}

PipelineConfig pipe_config(std::uint32_t stages, double ghz) {
  PipelineConfig c;
  c.stage_count = stages;
  c.clock_ghz = ghz;
  c.stage = small_stage();
  return c;
}

TEST(Pipeline, LatencyIsDepthTimesPeriod) {
  Pipeline p(pipe_config(12, 1.0));  // 1 GHz -> 1000 ps
  packet::Phv phv;
  const Transit t = p.process(0, phv);
  EXPECT_EQ(t.enter, 0u);
  EXPECT_EQ(t.cycles, 12u);
  EXPECT_EQ(t.exit, 12'000u);
  EXPECT_EQ(t.stall_cycles, 0u);
}

TEST(Pipeline, ThroughputOnePhvPerCycle) {
  Pipeline p(pipe_config(4, 1.0));
  packet::Phv phv;
  const Transit t1 = p.process(0, phv);
  const Transit t2 = p.process(0, phv);
  const Transit t3 = p.process(0, phv);
  EXPECT_EQ(t1.enter, 0u);
  EXPECT_EQ(t2.enter, 1000u);  // admitted one cycle later
  EXPECT_EQ(t3.enter, 2000u);
  EXPECT_EQ(t2.exit - t1.exit, 1000u);
}

TEST(Pipeline, LateArrivalEntersImmediately) {
  Pipeline p(pipe_config(4, 1.0));
  packet::Phv phv;
  p.process(0, phv);
  const Transit t = p.process(50'000, phv);
  EXPECT_EQ(t.enter, 50'000u);
}

TEST(Pipeline, StallSlowsAdmission) {
  Pipeline p(pipe_config(4, 1.0));
  // Stage 1 takes 3 cycles per PHV.
  p.set_stage_program(1, [](packet::Phv&, Stage&) -> std::uint64_t { return 3; });
  packet::Phv phv;
  const Transit t1 = p.process(0, phv);
  EXPECT_EQ(t1.cycles, 6u);         // 1 + 3 + 1 + 1
  EXPECT_EQ(t1.stall_cycles, 2u);
  const Transit t2 = p.process(0, phv);
  EXPECT_EQ(t2.enter, 3000u);  // inter-departure = max stage service
  EXPECT_EQ(p.total_stalls(), 4u);
}

TEST(Pipeline, ProgramsTransformPhv) {
  Pipeline p(pipe_config(3, 1.25));
  p.set_stage_program(0, [](packet::Phv& phv, Stage&) -> std::uint64_t {
    phv.set(f::kUser0, 5);
    return 1;
  });
  p.set_stage_program(2, [](packet::Phv& phv, Stage&) -> std::uint64_t {
    phv.set(f::kUser0, phv.get_or(f::kUser0, 0) * 2);
    return 1;
  });
  packet::Phv phv;
  p.process(0, phv);
  EXPECT_EQ(phv.get(f::kUser0), 10u);
  EXPECT_EQ(p.packets(), 1u);
}

TEST(Pipeline, SetProgramAllApplies) {
  Pipeline p(pipe_config(5, 1.0));
  p.set_program_all([](packet::Phv& phv, Stage&) -> std::uint64_t {
    phv.set(f::kUser0, phv.get_or(f::kUser0, 0) + 1);
    return 1;
  });
  packet::Phv phv;
  p.process(0, phv);
  EXPECT_EQ(phv.get(f::kUser0), 5u);
}

TEST(Pipeline, ClockDeterminesPeriod) {
  Pipeline fast(pipe_config(1, 2.0));
  Pipeline slow(pipe_config(1, 0.5));
  EXPECT_EQ(fast.period(), 500u);
  EXPECT_EQ(slow.period(), 2000u);
  packet::Phv phv;
  EXPECT_EQ(fast.process(0, phv).exit, 500u);
  packet::Phv phv2;
  EXPECT_EQ(slow.process(0, phv2).exit, 2000u);
}

TEST(Pipeline, BusyTimeTracksUtilization) {
  Pipeline p(pipe_config(2, 1.0));
  packet::Phv phv;
  p.process(0, phv);
  p.process(0, phv);
  EXPECT_EQ(p.busy_time(), 2000u);  // two admission slots
}

// --- first-touch stages (DESIGN.md §11) ----------------------------------

TEST(Pipeline, StagesMaterializeOnFirstTouch) {
  const std::uint64_t declared0 = Pipeline::stages_declared_total();
  const std::uint64_t built0 = Pipeline::stages_materialized_total();
  Pipeline p(pipe_config(6, 1.0));
  EXPECT_EQ(p.depth(), 6u);
  EXPECT_EQ(Pipeline::stages_declared_total() - declared0, 6u);
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 0u);

  // Naming a stage builds exactly that stage, once.
  EXPECT_EQ(p.stage(4).index(), 4u);
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 1u);
  EXPECT_EQ(p.stage(4).index(), 4u);
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 1u);
  p.set_stage_program(1, [](packet::Phv&, Stage&) -> std::uint64_t { return 1; });
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 2u);
  EXPECT_EQ(p.stage(1).index(), 1u);
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 2u);

  // Running PHVs builds nothing; naming a stage past the depth throws.
  packet::Phv phv;
  p.process(0, phv);
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 2u);
  EXPECT_THROW(p.stage(6), std::out_of_range);
  EXPECT_EQ(Pipeline::stages_materialized_total() - built0, 2u);
}

/// A stage nothing names holds no MAU and runs the default program, so a
/// pipeline that built only its programmed stage must time every PHV
/// exactly like one that built them all — stalls included.
TEST(Pipeline, UntouchedStagesTimeLikeEmptyStages) {
  const StageProgram stall = [](packet::Phv& phv, Stage&) -> std::uint64_t {
    return 1 + phv.get_or(f::kUser0, 0) % 4;  // 1-4 cycles
  };
  Pipeline built(pipe_config(12, 1.25));
  for (std::uint32_t i = 0; i < built.depth(); ++i) built.stage(i);
  built.set_stage_program(5, stall);
  const std::uint64_t built0 = Pipeline::stages_materialized_total();
  Pipeline lazy(pipe_config(12, 1.25));
  lazy.set_stage_program(5, stall);
  ASSERT_EQ(Pipeline::stages_materialized_total() - built0, 1u);

  sim::Rng rng(7);
  sim::Time now = 0;
  for (int n = 0; n < 2000; ++n) {
    now += rng.uniform(0, 4) * 300;  // back-to-back bursts and gaps, off the clock grid
    const std::uint64_t key = rng.uniform(0, 15);
    packet::Phv a;
    packet::Phv b;
    a.set(f::kUser0, key);
    b.set(f::kUser0, key);
    const Transit ta = built.process(now, a);
    const Transit tb = lazy.process(now, b);
    ASSERT_EQ(ta.enter, tb.enter) << "phv " << n;
    ASSERT_EQ(ta.exit, tb.exit) << "phv " << n;
    ASSERT_EQ(ta.cycles, tb.cycles) << "phv " << n;
    ASSERT_EQ(ta.stall_cycles, tb.stall_cycles) << "phv " << n;
    ASSERT_EQ(ta.max_service, tb.max_service) << "phv " << n;
    ASSERT_EQ(built.next_free(), lazy.next_free()) << "phv " << n;
  }
  EXPECT_GT(lazy.total_stalls(), 0u) << "the burst never stalled";
  EXPECT_EQ(built.total_stalls(), lazy.total_stalls());
  EXPECT_EQ(built.busy_time(), lazy.busy_time());
}

/// Reserved bytes count every declared stage when the pipeline is built;
/// building a stage later charges nothing, reserved or touched.
TEST(Pipeline, ReservesEveryDeclaredStageWhenBuilt) {
  PipelineConfig c = pipe_config(6, 1.0);
  c.stage.array = mat::ArrayEngineConfig{};
  c.stage.array->register_cells = 32;
  const std::uint64_t reserved0 = mat::StateAccounting::reserved_bytes();
  const std::uint64_t touched0 = mat::StateAccounting::touched_bytes();
  Pipeline p(c);
  const std::uint64_t declared = 6u * (16u + 32u) * sizeof(std::uint64_t);
  EXPECT_EQ(Stage::declared_bytes(c.stage), (16u + 32u) * sizeof(std::uint64_t));
  EXPECT_EQ(mat::StateAccounting::reserved_bytes() - reserved0, declared);

  p.stage(2);
  p.set_stage_program(3, [](packet::Phv&, Stage&) -> std::uint64_t { return 1; });
  p.set_program_all([](packet::Phv&, Stage&) -> std::uint64_t { return 1; });
  EXPECT_NE(p.stage(0).array_engine(), nullptr);
  EXPECT_EQ(mat::StateAccounting::reserved_bytes() - reserved0, declared);
  EXPECT_EQ(mat::StateAccounting::touched_bytes() - touched0, 0u);
}

// Property: over any burst of n back-to-back PHVs, the pipeline sustains
// exactly one PHV per cycle (line rate) when no stage stalls.
class PipelineBurst : public ::testing::TestWithParam<int> {};

TEST_P(PipelineBurst, SustainsOnePerCycle) {
  const int n = GetParam();
  Pipeline p(pipe_config(12, 1.25));
  packet::Phv phv;
  sim::Time last_exit = 0;
  for (int i = 0; i < n; ++i) last_exit = p.process(0, phv).exit;
  // First exit at depth*period, then one per period.
  const sim::Time expected =
      12 * p.period() + static_cast<sim::Time>(n - 1) * p.period();
  EXPECT_EQ(last_exit, expected);
}

INSTANTIATE_TEST_SUITE_P(Bursts, PipelineBurst, ::testing::Values(1, 2, 10, 100, 1000));

}  // namespace
}  // namespace adcp::pipeline

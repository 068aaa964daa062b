// Unit tests for tables, actions, registers, the array engine, and SRAM
// accounting.
#include <gtest/gtest.h>

#include <vector>

#include "mat/action.hpp"
#include "mat/array_engine.hpp"
#include "mat/mau.hpp"
#include "mat/memory.hpp"
#include "mat/register.hpp"
#include "mat/table.hpp"
#include "packet/fields.hpp"

namespace adcp::mat {
namespace {

namespace f = packet::fields;

TEST(ExactTable, InsertLookupErase) {
  ExactTable t(4);
  EXPECT_TRUE(t.insert(10, actions::nop()));
  EXPECT_TRUE(t.lookup(10).has_value());
  EXPECT_FALSE(t.lookup(11).has_value());
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.lookup(10).has_value());
}

TEST(ExactTable, CapacityEnforced) {
  ExactTable t(2);
  EXPECT_TRUE(t.insert(1, actions::nop()));
  EXPECT_TRUE(t.insert(2, actions::nop()));
  EXPECT_FALSE(t.insert(3, actions::nop()));
  EXPECT_EQ(t.size(), 2u);
  // Overwrite of an existing key is allowed at capacity.
  EXPECT_TRUE(t.insert(2, actions::drop()));
}

TEST(ExactTable, ActionExecutes) {
  ExactTable t(4);
  t.insert(5, actions::set_field(f::kUser0, 99));
  packet::Phv phv;
  (*t.lookup(5))(phv);
  EXPECT_EQ(phv.get(f::kUser0), 99u);
}

TEST(LpmTable, LongestPrefixWins) {
  LpmTable t(8);
  EXPECT_TRUE(t.insert(0x0a000000, 8, actions::set_field(f::kUser0, 8)));
  EXPECT_TRUE(t.insert(0x0a0a0000, 16, actions::set_field(f::kUser0, 16)));
  EXPECT_TRUE(t.insert(0x0a0a0a00, 24, actions::set_field(f::kUser0, 24)));

  packet::Phv phv;
  (*t.lookup(0x0a0a0a05))(phv);
  EXPECT_EQ(phv.get(f::kUser0), 24u);
  (*t.lookup(0x0a0a0505))(phv);
  EXPECT_EQ(phv.get(f::kUser0), 16u);
  (*t.lookup(0x0a050505))(phv);
  EXPECT_EQ(phv.get(f::kUser0), 8u);
  EXPECT_FALSE(t.lookup(0x0b000000).has_value());
}

TEST(LpmTable, DefaultRouteMatchesEverything) {
  LpmTable t(2);
  EXPECT_TRUE(t.insert(0, 0, actions::set_field(f::kUser0, 1)));
  EXPECT_TRUE(t.lookup(0xffffffff).has_value());
}

TEST(LpmTable, CapacityEnforced) {
  LpmTable t(1);
  EXPECT_TRUE(t.insert(0x0a000000, 8, actions::nop()));
  EXPECT_FALSE(t.insert(0x0b000000, 8, actions::nop()));
}

TEST(Actions, Sequence) {
  packet::Phv phv;
  actions::sequence(actions::set_field(f::kUser0, 1), actions::add_to_field(f::kUser0, 2))(phv);
  EXPECT_EQ(phv.get(f::kUser0), 3u);
}

TEST(Actions, ForwardAndDrop) {
  packet::Phv phv;
  actions::forward_to(7)(phv);
  EXPECT_EQ(phv.get(f::kMetaEgressPort), 7u);
  actions::drop()(phv);
  EXPECT_EQ(phv.get(f::kMetaDrop), 1u);
}

TEST(RegisterFile, AluOps) {
  RegisterFile r(8);
  EXPECT_EQ(r.apply(AluOp::kAdd, 0, 5), 5u);
  EXPECT_EQ(r.apply(AluOp::kAdd, 0, 3), 8u);
  EXPECT_EQ(r.apply(AluOp::kRead, 0, 0), 8u);
  EXPECT_EQ(r.apply(AluOp::kWrite, 0, 100), 8u);  // returns old
  EXPECT_EQ(r.peek(0), 100u);
  EXPECT_EQ(r.apply(AluOp::kMax, 1, 7), 7u);
  EXPECT_EQ(r.apply(AluOp::kMax, 1, 3), 7u);
  EXPECT_EQ(r.apply(AluOp::kMin, 1, 2), 2u);
}

TEST(RegisterFile, CasOnlySetsZeroCell) {
  RegisterFile r(2);
  EXPECT_EQ(r.apply(AluOp::kCas, 0, 42), 0u);  // was empty -> acquires
  EXPECT_EQ(r.peek(0), 42u);
  EXPECT_EQ(r.apply(AluOp::kCas, 0, 77), 42u);  // held -> returns holder
  EXPECT_EQ(r.peek(0), 42u);
}

TEST(RegisterFile, AndOrPacksMaskAndValue) {
  RegisterFile r(1);
  r.poke(0, 0xff);
  // Keep high nibble (mask 0xf0 in hi32), OR in 0x05.
  EXPECT_EQ(r.apply(AluOp::kAndOr, 0, (0xf0ull << 32) | 0x05), 0xf5u);
}

TEST(RegisterFile, TransactionCountAndFill) {
  RegisterFile r(4);
  r.apply(AluOp::kAdd, 0, 1);
  r.apply(AluOp::kRead, 1, 0);
  EXPECT_EQ(r.transactions(), 2u);
  r.fill(9);
  EXPECT_EQ(r.peek(3), 9u);
}

TEST(Mau, HitMissCountsAndDefaultAction) {
  ExactTable t(4);
  t.insert(1, actions::set_field(f::kUser1, 11));
  MatchActionUnit mau("m", f::kUser0, std::move(t), actions::set_field(f::kUser1, 99));

  packet::Phv phv;
  phv.set(f::kUser0, 1);
  EXPECT_TRUE(mau.process(phv));
  EXPECT_EQ(phv.get(f::kUser1), 11u);

  phv.set(f::kUser0, 2);
  EXPECT_FALSE(mau.process(phv));
  EXPECT_EQ(phv.get(f::kUser1), 99u);
  EXPECT_EQ(mau.hits(), 1u);
  EXPECT_EQ(mau.misses(), 1u);
}

TEST(Mau, WorksWithLpm) {
  LpmTable lpm(2);
  lpm.insert(0x0a000000, 8, actions::set_field(f::kUser1, 1));
  MatchActionUnit m1("lpm", f::kIpDst, std::move(lpm));
  packet::Phv phv;
  phv.set(f::kIpDst, 0x0a123456);
  EXPECT_TRUE(m1.process(phv));
}

TEST(StageMemoryPool, AllocatesAndRejects) {
  StageMemoryPool pool(10);
  EXPECT_TRUE(pool.allocate("a", 4));
  EXPECT_TRUE(pool.allocate("b", 3, 2));  // 6 blocks
  EXPECT_EQ(pool.used_blocks(), 10u);
  EXPECT_FALSE(pool.allocate("c", 1));
  EXPECT_EQ(pool.free_blocks(), 0u);
}

TEST(StageMemoryPool, ReplicationWasteIsVisible) {
  StageMemoryPool pool(100);
  pool.allocate("table", 5, 8);  // Fig. 3: 8 copies
  EXPECT_EQ(pool.used_blocks(), 40u);
  EXPECT_EQ(pool.replicated_blocks(), 35u);  // 7 wasted copies
}

ArrayEngineConfig small_engine(ArrayEngineMode mode, std::uint32_t width,
                               std::uint32_t mult) {
  ArrayEngineConfig c;
  c.mode = mode;
  c.lane_width = width;
  c.memory_clock_multiplier = mult;
  c.table_capacity = 64;
  c.register_cells = 64;
  return c;
}

TEST(ArrayEngine, ParallelCyclesScaleWithWidth) {
  ArrayMatEngine e(small_engine(ArrayEngineMode::kParallelInterconnect, 8, 1));
  EXPECT_EQ(e.cycles_for(1), 1u);
  EXPECT_EQ(e.cycles_for(8), 1u);
  EXPECT_EQ(e.cycles_for(9), 2u);
  EXPECT_EQ(e.cycles_for(16), 2u);
}

TEST(ArrayEngine, SerialCyclesScaleWithMultiplier) {
  ArrayMatEngine e(small_engine(ArrayEngineMode::kMultiClockSerial, 16, 4));
  EXPECT_EQ(e.cycles_for(4), 1u);
  EXPECT_EQ(e.cycles_for(16), 4u);  // width 16 but memory retires 4/cycle
}

TEST(ArrayEngine, MatchBatchHitsAndMisses) {
  ArrayMatEngine e(small_engine(ArrayEngineMode::kParallelInterconnect, 8, 1));
  EXPECT_TRUE(e.insert(100, 0));
  EXPECT_TRUE(e.insert(101, 1));
  const std::vector<std::uint64_t> keys = {100, 7, 101};
  std::uint64_t cycles = 0;
  const auto r = e.match_batch(keys, cycles);
  EXPECT_EQ(cycles, 1u);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 0u);
  EXPECT_FALSE(r[1].has_value());
  EXPECT_EQ(r[2], 1u);
}

TEST(ArrayEngine, UpdateBatchAggregates) {
  ArrayMatEngine e(small_engine(ArrayEngineMode::kParallelInterconnect, 8, 1));
  const std::vector<std::uint64_t> keys = {1, 2, 3};
  std::uint64_t cycles = 0;
  auto r1 = e.update_batch(AluOp::kAdd, keys, std::vector<std::uint64_t>{10, 20, 30}, cycles);
  EXPECT_EQ(r1, (std::vector<std::uint64_t>{10, 20, 30}));
  auto r2 = e.update_batch(AluOp::kAdd, keys, std::vector<std::uint64_t>{1, 2, 3}, cycles);
  EXPECT_EQ(r2, (std::vector<std::uint64_t>{11, 22, 33}));
}

TEST(ArrayEngine, StallAccounting) {
  ArrayMatEngine e(small_engine(ArrayEngineMode::kMultiClockSerial, 16, 2));
  std::uint64_t cycles = 0;
  const std::vector<std::uint64_t> keys(8, 1);
  const std::vector<std::uint64_t> ops(8, 1);
  e.update_batch(AluOp::kAdd, keys, ops, cycles);
  EXPECT_EQ(cycles, 4u);
  EXPECT_EQ(e.stall_cycles(), 3u);
  EXPECT_EQ(e.batches(), 1u);
  EXPECT_EQ(e.elements(), 8u);
}

TEST(ArrayEngine, TableCapacityEnforced) {
  ArrayEngineConfig c = small_engine(ArrayEngineMode::kParallelInterconnect, 8, 1);
  c.table_capacity = 2;
  ArrayMatEngine e(c);
  EXPECT_TRUE(e.insert(1, 0));
  EXPECT_TRUE(e.insert(2, 1));
  EXPECT_FALSE(e.insert(3, 2));
  EXPECT_TRUE(e.insert(2, 5));  // overwrite allowed
}

// Property sweep: for every (mode, width/multiplier, batch) combination the
// cycle count is exactly ceil(batch / per_cycle).
struct CycleCase {
  ArrayEngineMode mode;
  std::uint32_t width;
  std::uint32_t mult;
  std::size_t batch;
};

class ArrayEngineCycles : public ::testing::TestWithParam<CycleCase> {};

TEST_P(ArrayEngineCycles, MatchesCeilFormula) {
  const CycleCase c = GetParam();
  ArrayMatEngine e(small_engine(c.mode, c.width, c.mult));
  const std::uint64_t per =
      c.mode == ArrayEngineMode::kParallelInterconnect ? c.width : c.mult;
  const std::uint64_t expected = c.batch == 0 ? 1 : (c.batch + per - 1) / per;
  EXPECT_EQ(e.cycles_for(c.batch), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArrayEngineCycles,
    ::testing::Values(CycleCase{ArrayEngineMode::kParallelInterconnect, 8, 1, 0},
                      CycleCase{ArrayEngineMode::kParallelInterconnect, 8, 1, 7},
                      CycleCase{ArrayEngineMode::kParallelInterconnect, 8, 1, 8},
                      CycleCase{ArrayEngineMode::kParallelInterconnect, 16, 1, 17},
                      CycleCase{ArrayEngineMode::kParallelInterconnect, 1, 1, 5},
                      CycleCase{ArrayEngineMode::kMultiClockSerial, 16, 1, 16},
                      CycleCase{ArrayEngineMode::kMultiClockSerial, 16, 2, 16},
                      CycleCase{ArrayEngineMode::kMultiClockSerial, 16, 8, 16},
                      CycleCase{ArrayEngineMode::kMultiClockSerial, 16, 16, 16}));

}  // namespace
}  // namespace adcp::mat

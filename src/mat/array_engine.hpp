// Intra-stage shared memory for array matching (paper §3.2 and §4).
//
// The ADCP proposal interconnects the table memories of a stage's MAUs so
// the group can match an *array* of values at once. Two hardware options
// from §4 are modeled:
//
//  * kParallelInterconnect — a programmable interconnect gives every lane a
//    port into the unified memory: `lane_width` lookups retire per pipe
//    cycle.
//  * kMultiClockSerial — the memory is clocked `memory_clock_multiplier`×
//    faster than the pipe and serves lookups one at a time: that many
//    lookups retire per pipe cycle.
//
// Either way, a batch larger than what one pipe cycle can retire stalls
// the pipeline for the extra cycles; the engine reports the cost and the
// pipeline model charges it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mat/register.hpp"
#include "mat/state_accounting.hpp"

namespace adcp::mat {

/// Which §4 implementation style the engine simulates.
enum class ArrayEngineMode {
  kParallelInterconnect,
  kMultiClockSerial,
};

/// Configuration of one stage's array engine.
struct ArrayEngineConfig {
  ArrayEngineMode mode = ArrayEngineMode::kParallelInterconnect;
  /// MAU lanes interconnected into the unified memory (8 or 16 in §3.2).
  std::uint32_t lane_width = 16;
  /// Memory clock as a multiple of the pipe clock (kMultiClockSerial).
  std::uint32_t memory_clock_multiplier = 8;
  /// Entries of the unified match table.
  std::size_t table_capacity = 65'536;
  /// Cells of the unified stateful register array.
  std::size_t register_cells = 65'536;
};

/// The unified match memory + stateful array shared by a stage's MAU group.
class ArrayMatEngine {
 public:
  explicit ArrayMatEngine(ArrayEngineConfig config);
  /// As above, for an owner that already charged declared_bytes(config).
  ArrayMatEngine(ArrayEngineConfig config, ReservedByOwner);

  /// Bytes of simulated state an engine of `config` declares: its register
  /// array (the unified match table holds only the entries inserted).
  static constexpr std::uint64_t declared_bytes(const ArrayEngineConfig& config) {
    return RegisterFile::declared_bytes(config.register_cells);
  }

  /// Pipe cycles needed to retire a batch of `n` operations (>= 1).
  [[nodiscard]] std::uint64_t cycles_for(std::size_t n) const;

  /// Matches every key against the unified exact table. Returns one entry
  /// per key: the matched cell index, or nullopt on miss. `cycles_out`
  /// receives the pipe-cycle cost.
  std::vector<std::optional<std::uint64_t>> match_batch(
      std::span<const std::uint64_t> keys, std::uint64_t& cycles_out);

  /// Applies `op` to the register cell of every (key, operand) pair —
  /// cell index = key % register_cells — and returns the per-element ALU
  /// results. This is the aggregation primitive (e.g. kAdd accumulates ML
  /// gradients per weight id). `cycles_out` receives the pipe-cycle cost.
  std::vector<std::uint64_t> update_batch(AluOp op, std::span<const std::uint64_t> keys,
                                          std::span<const std::uint64_t> operands,
                                          std::uint64_t& cycles_out);

  /// Inserts `key -> cell_index` into the unified match table.
  bool insert(std::uint64_t key, std::uint64_t cell_index);

  [[nodiscard]] const ArrayEngineConfig& config() const { return config_; }
  RegisterFile& registers() { return registers_; }
  [[nodiscard]] const RegisterFile& registers() const { return registers_; }

  /// Total pipe-cycle stalls charged beyond the first cycle of each batch.
  [[nodiscard]] std::uint64_t stall_cycles() const { return stall_cycles_; }
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::uint64_t elements() const { return elements_; }

 private:
  ArrayEngineConfig config_;
  // Unified match memory: key -> register cell index, bounded by
  // config_.table_capacity.
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  RegisterFile registers_;
  std::uint64_t stall_cycles_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t elements_ = 0;
};

}  // namespace adcp::mat

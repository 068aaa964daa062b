// One pipeline stage: a fixed budget of MAUs, stateful registers, SRAM,
// and (in ADCP configurations) an array engine over a unified memory.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mat/array_engine.hpp"
#include "mat/mau.hpp"
#include "mat/memory.hpp"
#include "mat/register.hpp"
#include "packet/phv.hpp"

namespace adcp::pipeline {

/// Hardware budget of one stage.
struct StageConfig {
  /// MAUs per stage; 16 matches current RMT silicon (paper §2 issue 2).
  std::uint32_t mau_count = 16;
  /// SRAM blocks available to this stage's tables.
  std::uint32_t sram_blocks = 80;
  /// Cells in the stage's scalar register file.
  std::size_t register_cells = 65'536;
  /// Present only on ADCP central/array-capable stages.
  std::optional<mat::ArrayEngineConfig> array;
};

/// A stage instance. Programs attach MAUs (each allocation charged against
/// the SRAM pool) and may use the register file and array engine.
class Stage {
 public:
  /// Builds the stage without charging mat::StateAccounting: its owner, a
  /// Pipeline, reserves declared_bytes(config) for every stage it declares,
  /// built or not.
  Stage(std::uint32_t index, const StageConfig& config);

  /// Bytes of simulated state a stage of `config` declares: its register
  /// file plus its array engine's, if it has one.
  static std::uint64_t declared_bytes(const StageConfig& config);

  /// Attaches a MAU whose table occupies `sram_blocks` blocks, replicated
  /// `copies` times (RMT scalar replication, paper Fig. 3). Fails without
  /// side effects when the stage is out of MAUs or SRAM.
  bool add_mau(mat::MatchActionUnit mau, std::uint32_t sram_blocks, std::uint32_t copies = 1);

  /// Runs every attached MAU, in attach order, against `phv`.
  void run_maus(packet::Phv& phv);

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const StageConfig& config() const { return config_; }
  [[nodiscard]] std::size_t mau_count() const { return maus_.size(); }

  mat::RegisterFile& registers() { return registers_; }
  mat::StageMemoryPool& memory() { return memory_; }
  [[nodiscard]] const mat::StageMemoryPool& memory() const { return memory_; }

  /// Non-null only when the stage was configured with an array engine.
  mat::ArrayMatEngine* array_engine() { return array_engine_ ? &*array_engine_ : nullptr; }

 private:
  std::uint32_t index_;
  StageConfig config_;
  std::vector<mat::MatchActionUnit> maus_;
  mat::RegisterFile registers_;
  mat::StageMemoryPool memory_;
  std::optional<mat::ArrayMatEngine> array_engine_;
};

/// Per-stage program: transforms the PHV using the stage's resources and
/// returns the pipe cycles the stage spent (>= 1; >1 stalls the pipeline,
/// e.g. serialized array lookups). An empty program is the default: run
/// the attached MAUs, one pipe cycle.
using StageProgram = std::function<std::uint64_t(packet::Phv&, Stage&)>;

}  // namespace adcp::pipeline

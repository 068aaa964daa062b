#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "mat/state_accounting.hpp"

namespace adcp::pipeline {

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config), period_(sim::period_from_ghz(config.clock_ghz)) {
  // Every declared stage's state is reserved now, built or not; a stage
  // built later charges only what it touches.
  mat::StateAccounting::add_reserved(config.stage_count * Stage::declared_bytes(config.stage));
  stages_declared_.fetch_add(config.stage_count, std::memory_order_relaxed);
}

Pipeline::BuiltStage& Pipeline::touch(std::uint32_t index) {
  if (index >= config_.stage_count) throw std::out_of_range("pipeline stage index");
  const auto at = std::lower_bound(
      built_.begin(), built_.end(), index,
      [](const std::unique_ptr<BuiltStage>& b, std::uint32_t i) { return b->stage.index() < i; });
  if (at != built_.end() && (*at)->stage.index() == index) return **at;
  stages_materialized_.fetch_add(1, std::memory_order_relaxed);
  return **built_.insert(at, std::make_unique<BuiltStage>(index, config_.stage));
}

void Pipeline::set_stage_program(std::uint32_t index, StageProgram program) {
  touch(index).program = std::move(program);
}

void Pipeline::set_program_all(const StageProgram& program) {
  for (std::uint32_t i = 0; i < config_.stage_count; ++i) touch(i).program = program;
}

Transit Pipeline::process(sim::Time now, packet::Phv& phv) {
  Transit t;
  t.enter = std::max(now, next_free_);

  // Unbuilt stages take one cycle each and leave the PHV alone.
  std::uint64_t latency_cycles = config_.stage_count - built_.size();
  std::uint64_t max_service = 1;
  for (const std::unique_ptr<BuiltStage>& b : built_) {
    // A stage with no program of its own runs its MAUs directly rather
    // than through a std::function.
    std::uint64_t service = 1;
    if (b->program) {
      service = std::max<std::uint64_t>(1, b->program(phv, b->stage));
    } else {
      b->stage.run_maus(phv);
    }
    latency_cycles += service;
    max_service = std::max(max_service, service);
    t.stall_cycles += service - 1;
  }

  t.cycles = latency_cycles;
  t.max_service = max_service;
  t.exit = t.enter + latency_cycles * period_;
  // The next PHV can enter once the slowest stage has drained one slot.
  next_free_ = t.enter + max_service * period_;
  busy_ += max_service * period_;
  ++packets_;
  total_stalls_ += t.stall_cycles;
  return t;
}

Transit Pipeline::advance(sim::Time now, std::uint64_t latency_cycles,
                          std::uint64_t max_service,
                          std::uint64_t stall_cycles) {
  Transit t;
  t.enter = std::max(now, next_free_);
  t.cycles = latency_cycles;
  t.max_service = max_service;
  t.stall_cycles = stall_cycles;
  t.exit = t.enter + latency_cycles * period_;
  next_free_ = t.enter + max_service * period_;
  busy_ += max_service * period_;
  ++packets_;
  total_stalls_ += stall_cycles;
  return t;
}

}  // namespace adcp::pipeline

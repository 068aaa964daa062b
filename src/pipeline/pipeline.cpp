#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <cassert>

namespace adcp::pipeline {

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config), period_(sim::period_from_ghz(config.clock_ghz)) {
  stages_.reserve(config.stage_count);
  for (std::uint32_t i = 0; i < config.stage_count; ++i) stages_.emplace_back(i, config.stage);
  programs_.resize(config.stage_count);  // empty: the default program
}

void Pipeline::set_stage_program(std::uint32_t index, StageProgram program) {
  programs_.at(index) = std::move(program);
}

void Pipeline::set_program_all(const StageProgram& program) {
  for (auto& p : programs_) p = program;
}

Transit Pipeline::process(sim::Time now, packet::Phv& phv) {
  Transit t;
  t.enter = std::max(now, next_free_);

  std::uint64_t latency_cycles = 0;
  std::uint64_t max_service = 1;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    // Most stages run no program of their own; call the default directly
    // rather than through a std::function.
    std::uint64_t service = 1;
    if (programs_[i]) {
      service = std::max<std::uint64_t>(1, programs_[i](phv, stages_[i]));
    } else {
      stages_[i].run_maus(phv);
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

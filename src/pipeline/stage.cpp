#include "pipeline/stage.hpp"

namespace adcp::pipeline {

Stage::Stage(std::uint32_t index, const StageConfig& config)
    : index_(index),
      config_(config),
      registers_(config.register_cells),
      memory_(config.sram_blocks) {
  if (config.array) array_engine_.emplace(*config.array);
}

bool Stage::add_mau(mat::MatchActionUnit mau, std::uint32_t sram_blocks, std::uint32_t copies) {
  if (maus_.size() >= config_.mau_count) return false;
  if (!memory_.allocate(mau.name(), sram_blocks, copies)) return false;
  maus_.push_back(std::move(mau));
  return true;
}

void Stage::run_maus(packet::Phv& phv) {
  for (mat::MatchActionUnit& mau : maus_) mau.process(phv);
}

}  // namespace adcp::pipeline

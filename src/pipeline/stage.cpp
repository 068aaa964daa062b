#include "pipeline/stage.hpp"

#include "mat/state_accounting.hpp"

namespace adcp::pipeline {

Stage::Stage(std::uint32_t index, const StageConfig& config)
    : index_(index),
      config_(config),
      registers_(config.register_cells, mat::ReservedByOwner{}),
      memory_(config.sram_blocks) {
  if (config.array) array_engine_.emplace(*config.array, mat::ReservedByOwner{});
}

std::uint64_t Stage::declared_bytes(const StageConfig& config) {
  return mat::RegisterFile::declared_bytes(config.register_cells) +
         (config.array ? mat::ArrayMatEngine::declared_bytes(*config.array) : 0);
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

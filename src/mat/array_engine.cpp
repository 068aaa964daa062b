#include "mat/array_engine.hpp"

#include <cassert>

namespace adcp::mat {

ArrayMatEngine::ArrayMatEngine(ArrayEngineConfig config)
    : ArrayMatEngine(config, ReservedByOwner{}) {
  StateAccounting::add_reserved(declared_bytes(config_));
}

ArrayMatEngine::ArrayMatEngine(ArrayEngineConfig config, ReservedByOwner owner)
    : config_(config), registers_(config.register_cells, owner) {
  assert(config_.lane_width > 0 && config_.memory_clock_multiplier > 0);
}

std::uint64_t ArrayMatEngine::cycles_for(std::size_t n) const {
  if (n == 0) return 1;
  const std::uint64_t per_cycle = config_.mode == ArrayEngineMode::kParallelInterconnect
                                      ? config_.lane_width
                                      : config_.memory_clock_multiplier;
  return (n + per_cycle - 1) / per_cycle;
}

std::vector<std::optional<std::uint64_t>> ArrayMatEngine::match_batch(
    std::span<const std::uint64_t> keys, std::uint64_t& cycles_out) {
  cycles_out = cycles_for(keys.size());
  stall_cycles_ += cycles_out - 1;
  ++batches_;
  elements_ += keys.size();

  std::vector<std::optional<std::uint64_t>> out;
  out.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    const auto it = table_.find(key);
    if (it == table_.end()) {
      out.push_back(std::nullopt);
    } else {
      out.push_back(it->second);
    }
  }
  return out;
}

std::vector<std::uint64_t> ArrayMatEngine::update_batch(AluOp op,
                                                        std::span<const std::uint64_t> keys,
                                                        std::span<const std::uint64_t> operands,
                                                        std::uint64_t& cycles_out) {
  assert(keys.size() == operands.size());
  cycles_out = cycles_for(keys.size());
  stall_cycles_ += cycles_out - 1;
  ++batches_;
  elements_ += keys.size();

  std::vector<std::uint64_t> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t cell = static_cast<std::size_t>(keys[i] % registers_.size());
    out.push_back(registers_.apply(op, cell, operands[i]));
  }
  return out;
}

bool ArrayMatEngine::insert(std::uint64_t key, std::uint64_t cell_index) {
  const auto it = table_.find(key);
  if (it != table_.end()) {
    it->second = cell_index;
    return true;
  }
  if (table_.size() >= config_.table_capacity) return false;
  table_.emplace(key, cell_index);
  return true;
}

}  // namespace adcp::mat

// Stage SRAM accounting.
//
// Match tables in an RMT-class chip live in per-stage SRAM blocks; memory
// is the scarce resource (paper Fig. 3: scalar processing forces table
// *replication*, wasting it). This pool makes every allocation — including
// replicas — explicit so the benches can report the waste.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace adcp::mat {

/// One named SRAM allocation.
struct MemoryAllocation {
  std::string owner;
  std::uint32_t blocks = 0;
  std::uint32_t copies = 1;  ///< replication factor (RMT scalar matching)
};

/// Fixed budget of SRAM blocks within one pipeline stage.
class StageMemoryPool {
 public:
  /// `total_blocks`: SRAM blocks available (Tofino-class stages have ~80
  /// blocks of 128 Kb each; the default mirrors that scale).
  explicit StageMemoryPool(std::uint32_t total_blocks = 80) : total_(total_blocks) {}

  /// Reserves `blocks * copies` blocks for `owner`. Returns false (and
  /// allocates nothing) if the stage does not have that much SRAM left.
  bool allocate(std::string owner, std::uint32_t blocks, std::uint32_t copies = 1) {
    const std::uint64_t need = std::uint64_t{blocks} * copies;
    if (used_ + need > total_) return false;
    used_ += static_cast<std::uint32_t>(need);
    allocations_.push_back(MemoryAllocation{std::move(owner), blocks, copies});
    return true;
  }

  [[nodiscard]] std::uint32_t used_blocks() const { return used_; }
  [[nodiscard]] std::uint32_t free_blocks() const { return total_ - used_; }
  [[nodiscard]] const std::vector<MemoryAllocation>& allocations() const { return allocations_; }

  /// Blocks consumed purely by replication (copies beyond the first).
  [[nodiscard]] std::uint32_t replicated_blocks() const {
    std::uint32_t waste = 0;
    for (const MemoryAllocation& a : allocations_) waste += a.blocks * (a.copies - 1);
    return waste;
  }

  void reset() {
    used_ = 0;
    allocations_.clear();
  }

 private:
  std::uint32_t total_;
  std::uint32_t used_ = 0;
  std::vector<MemoryAllocation> allocations_;
};

}  // namespace adcp::mat

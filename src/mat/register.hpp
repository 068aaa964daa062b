// Stateful registers and their ALU.
//
// Registers are the "stateful processing" of the paper's title: arrays of
// cells that persist across packets, updated by a read-modify-write ALU as
// a packet passes the stage. Exactly one RMW per cell per packet — the
// discipline real RMT stages enforce.
//
// The backing store materializes lazily on the first write ("first
// touch"): a freshly built file only records its size. An unmaterialized
// file is observationally identical to a zero-filled one — `peek` of an
// untouched file returns 0 — so a fabric costs what its workload touches,
// not what its configs declare (DESIGN.md §11).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "mat/state_accounting.hpp"

namespace adcp::mat {

/// Operations the stateful ALU supports.
enum class AluOp {
  kRead,    ///< result = cell
  kWrite,   ///< cell = operand; result = old value
  kAdd,     ///< cell += operand; result = new value
  kMax,     ///< cell = max(cell, operand); result = new value
  kMin,     ///< cell = min(cell, operand); result = new value
  kCas,     ///< if cell == 0 then cell = operand; result = old value
  kAndOr,   ///< cell = (cell & hi32(operand)) | lo32(operand); result = new
};

/// A register array within a stage.
class RegisterFile {
 public:
  /// Reserves `cells` zeroed cells; the store appears on first write.
  explicit RegisterFile(std::size_t cells) : size_(cells) {
    StateAccounting::add_reserved(declared_bytes(cells));
  }
  /// As above, for an owner that already charged declared_bytes(cells).
  RegisterFile(std::size_t cells, ReservedByOwner) : size_(cells) {}

  /// Bytes a file of `cells` cells declares (and materializes when touched).
  static constexpr std::uint64_t declared_bytes(std::size_t cells) {
    return cells * sizeof(std::uint64_t);
  }

  /// Applies `op` to cell `index` with `operand`; returns the op's result.
  std::uint64_t apply(AluOp op, std::size_t index, std::uint64_t operand);

  /// Direct read without an ALU transaction (control-plane access).
  /// Reads do not materialize: untouched cells are zero by definition.
  [[nodiscard]] std::uint64_t peek(std::size_t index) const {
    assert(index < size_);
    return cells_.empty() ? 0 : cells_[index];
  }

  /// Control-plane write.
  void poke(std::size_t index, std::uint64_t value) {
    assert(index < size_);
    touch();
    cells_[index] = value;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Number of ALU transactions performed (for occupancy accounting).
  [[nodiscard]] std::uint64_t transactions() const { return transactions_; }

  void fill(std::uint64_t value) {
    // Filling with zero is a no-op on an unmaterialized file.
    if (value == 0 && cells_.empty()) return;
    touch();
    for (auto& c : cells_) c = value;
  }

  [[nodiscard]] bool materialized() const { return !cells_.empty() || size_ == 0; }

 private:
  /// Materializes the zeroed backing store (idempotent); every write path
  /// calls it first.
  void touch() {
    if (!cells_.empty() || size_ == 0) return;
    cells_.assign(size_, 0);
    StateAccounting::add_touched(declared_bytes(size_));
  }

  std::size_t size_;
  std::vector<std::uint64_t> cells_;  // empty until first touch
  std::uint64_t transactions_ = 0;
};

}  // namespace adcp::mat

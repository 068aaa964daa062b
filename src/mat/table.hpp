// Match tables: exact and longest-prefix.
//
// All tables match a 64-bit key and yield an Action. Capacity is explicit:
// insertion fails when the table is full, as on real silicon.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "mat/action.hpp"

namespace adcp::mat {

/// Result of a lookup: the matched action, or nullopt on miss.
using LookupResult = std::optional<std::reference_wrapper<const Action>>;

/// Exact-match table (SRAM hash table on real chips).
class ExactTable {
 public:
  explicit ExactTable(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts or overwrites; returns false when inserting a *new* key into a
  /// full table.
  bool insert(std::uint64_t key, Action action);
  bool erase(std::uint64_t key) { return entries_.erase(key) > 0; }
  [[nodiscard]] LookupResult lookup(std::uint64_t key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Action> entries_;
};

/// Longest-prefix-match table over 32-bit keys (IPv4-style routing).
class LpmTable {
 public:
  explicit LpmTable(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts `prefix/len`; len in [0, 32].
  bool insert(std::uint32_t prefix, std::uint8_t len, Action action);
  [[nodiscard]] LookupResult lookup(std::uint32_t key) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t size_ = 0;
  // entries_[len] maps masked prefix -> action; lookup walks lengths
  // longest-first.
  std::array<std::unordered_map<std::uint32_t, Action>, 33> entries_;
};

}  // namespace adcp::mat

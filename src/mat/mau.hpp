// Match-Action Unit: one table + key selection + default action.
//
// An RMT stage contains a fixed number of MAUs (16 in current silicon).
// Classic RMT restriction (paper Fig. 3): each MAU matches ONE scalar PHV
// field per packet. The array engine (array_engine.hpp) is the ADCP
// mechanism that lets a group of MAUs match an array instead.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "mat/action.hpp"
#include "mat/table.hpp"

namespace adcp::mat {

/// A MAU wraps one match table; the key is one scalar PHV field.
class MatchActionUnit {
 public:
  using Table = std::variant<ExactTable, LpmTable>;

  MatchActionUnit(std::string name, packet::FieldId key_field, Table table,
                  Action default_action = actions::nop())
      : name_(std::move(name)),
        key_field_(key_field),
        table_(std::move(table)),
        default_action_(std::move(default_action)) {}

  /// Looks up the configured key field and executes the matched action (or
  /// the default action on miss). Returns true on hit. A PHV that never set
  /// the key field looks up key 0.
  bool process(packet::Phv& phv);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// Table access for control-plane programming.
  Table& table() { return table_; }
  [[nodiscard]] const Table& table() const { return table_; }

 private:
  std::string name_;
  packet::FieldId key_field_;
  Table table_;
  Action default_action_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace adcp::mat

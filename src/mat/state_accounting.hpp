// Process-wide accounting of heavy simulated-state allocations.
//
// The fabric builder's "construction diet" (DESIGN.md §11) needs to know
// how much switch state was *reserved* (declared by configs: register
// cells, array-engine cells) versus how much was actually *touched*
// (materialized by a first write). Both counters are cumulative and
// monotone for the life of the process; callers that want the cost of one
// build take a before/after delta. Counters are relaxed atomics because
// lazy materialization can happen on PDES worker threads.
//
// Each object that declares state charges its own reservation when it is
// built, unless it is built with the `ReservedByOwner` tag: an owner that
// declares more than it builds up front (a pipeline declares all its
// stages, builds each on first touch) charges the whole declaration once,
// and the parts it builds later charge only what they touch.
#pragma once

#include <atomic>
#include <cstdint>

namespace adcp::mat {

/// Constructor tag: the owner already charged this object's declared bytes
/// to StateAccounting::add_reserved, so building it charges nothing more.
struct ReservedByOwner {
  explicit ReservedByOwner() = default;
};

class StateAccounting {
 public:
  /// Bytes of simulated state declared by a config (charged at
  /// construction, whether or not the backing store exists yet).
  static void add_reserved(std::uint64_t bytes) {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Bytes of backing store actually materialized by a first touch.
  static void add_touched(std::uint64_t bytes) {
    touched_.fetch_add(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::uint64_t reserved_bytes() {
    return reserved_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t touched_bytes() {
    return touched_.load(std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<std::uint64_t> reserved_{0};
  static inline std::atomic<std::uint64_t> touched_{0};
};

}  // namespace adcp::mat

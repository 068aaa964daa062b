// Coflow completion tracking.
//
// A coflow completes when every member flow has delivered its expected
// packets to its sink. The tracker records per-coflow start, finish, and
// the resulting coflow completion time (CCT) — the primary metric of the
// Table-1 application benches.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coflow/coflow.hpp"
#include "sim/time.hpp"

namespace adcp::coflow {

/// Progress and outcome of one tracked coflow.
struct CoflowRecord {
  CoflowDescriptor descriptor;
  sim::Time start = 0;
  std::optional<sim::Time> finish;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;

  [[nodiscard]] bool complete() const { return finish.has_value(); }
  [[nodiscard]] sim::Time completion_time() const { return finish.value_or(0) - start; }
};

/// Observes packet deliveries and decides coflow completion.
///
/// Thread-safe for the sharded parallel runs: sink hosts on different
/// shards deliver concurrently, so the mutators take an internal mutex and
/// the finish time is defined order-independently as the maximum per-flow
/// completion time (identical to the sequential value, where deliveries
/// arrive in nondecreasing simulation time). Readers are meant for after
/// the run (or from a single thread).
class CoflowTracker {
 public:
  /// Starts tracking `descriptor` as of `start`. Expected packet counts
  /// come from the descriptor's flows.
  void start(const CoflowDescriptor& descriptor, sim::Time start);

  /// Records delivery of one packet of `flow` within `coflow` at `when`
  /// carrying `bytes`. Unknown ids are ignored (background traffic).
  void deliver(CoflowId coflow, FlowId flow, std::uint64_t bytes, sim::Time when);

  /// Overrides the expected packet count of one flow (e.g. when the switch
  /// aggregates n updates into 1 result, the sink expects fewer packets).
  void set_expected_packets(CoflowId coflow, FlowId flow, std::uint64_t packets);

  [[nodiscard]] const CoflowRecord* record(CoflowId id) const;
  [[nodiscard]] bool all_complete() const;

  /// Completion times of all finished coflows, in finish order.
  [[nodiscard]] std::vector<sim::Time> completion_times() const;

 private:
  struct FlowProgress {
    std::uint64_t expected = 0;
    std::uint64_t seen = 0;
  };
  struct Entry {
    CoflowRecord record;
    std::unordered_map<FlowId, FlowProgress> flows;
    std::uint64_t incomplete_flows = 0;
    sim::Time last_completion = 0;  ///< max completion time over finished flows
  };

  void maybe_finish(Entry& e);

  mutable std::mutex mu_;
  std::unordered_map<CoflowId, Entry> records_;
};

}  // namespace adcp::coflow

// The controller-side half of control-plane co-simulation.
//
// A ControlAgent is a simulated control-plane process that *rides a host*
// (the backing-store server): everything it sends — install and evict
// batches for the edge switches' versioned stores — leaves through that
// host's NIC as real kCtrlUpdate packets and crosses the fabric's ordinary
// links and queues, so update latency, batching, and control/data
// contention are simulated, not assumed.
//
// The agent doubles as the backing store for the churn workload: every
// kChurnQuery that the switches could not answer lands here, feeds the
// popularity estimate (a decayed frequency count), and is answered with a
// kChurnMiss after a configurable service time. Each poll the agent picks
// its current top-`hot_set` keys, diffs them against what it believes each
// target switch holds, and ships the difference as one epoch batch per
// switch (evicts first, then installs, budget-capped, packed 16 entries
// per packet, the last packet carrying the commit flag).
//
// Determinism: the agent lives entirely on the backing host's shard; its
// poll event, frequency map, and sends are shard-local, and key selection
// breaks ties by key order — bit-identical for any PDES worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "packet/control.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "topo/network.hpp"

namespace adcp::ctrl {

struct ControlAgentConfig {
  /// Poll period (how often update batches are computed and sent).
  sim::Time period = 50 * sim::kMicrosecond;
  /// Target resident set per switch: the top-k keys by decayed frequency.
  std::size_t hot_set = 64;
  /// Most entries (installs + evicts) shipped to one switch per poll.
  std::size_t update_budget = 64;
  /// Backing-store service time added before each kChurnMiss reply (the
  /// cost a cache hit avoids).
  sim::Time miss_service_time = 5 * sim::kMicrosecond;
  /// Authoritative value for a key; null models value = key + 1.
  std::function<std::uint32_t(std::uint32_t)> store;
};

class ControlAgent {
 public:
  /// Attaches to `net.host(backing_host)`: registers the query/reply sink
  /// on it and sends all control traffic through it. The network must have
  /// its control channel enabled.
  ControlAgent(ControlAgentConfig config, topo::Network& net, std::size_t backing_host,
               sim::Scope scope = {});

  /// Adds switch `switch_index` (must have a management port) to the set
  /// this agent manages.
  void add_target(std::size_t switch_index);
  /// Targets every switch with a management port.
  void add_all_targets();

  /// Begins periodic polling on the backing host's simulator.
  void start();
  void stop() { handle_.cancel(); }

  /// One poll pass (also callable directly from tests).
  void poll();

  [[nodiscard]] std::uint64_t polls() const { return polls_.value(); }
  [[nodiscard]] std::uint64_t batches() const { return batches_.value(); }
  [[nodiscard]] std::uint64_t update_packets() const { return packets_.value(); }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

 private:
  struct Target {
    std::size_t switch_index = 0;
    std::uint32_t ctrl_ip = 0;
    std::uint32_t seq = 0;                         // per-target packet sequence
    std::unordered_set<std::uint32_t> mirror;      // entries believed resident
  };

  void send_batch(Target& target, const std::vector<packet::CtrlEntry>& entries);

  ControlAgentConfig config_;
  topo::Network* net_;
  std::size_t backing_host_;
  std::uint32_t backing_ip_;
  sim::Simulator* sim_;  // the backing host's shard
  sim::EventHandle handle_;
  std::vector<Target> targets_;
  std::unordered_map<std::uint32_t, std::uint64_t> freq_;  // decayed popularity
  std::uint32_t epoch_ = 0;
  // Declared before scope_ (fallback registry must exist first).
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  sim::Counter& polls_;
  sim::Counter& batches_;
  sim::Counter& packets_;
  sim::Counter& entries_;
  sim::Counter& served_;
};

}  // namespace adcp::ctrl

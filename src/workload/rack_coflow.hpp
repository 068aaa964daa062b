// Cross-rack coflow workloads for multi-switch topologies.
//
// The single-switch workloads address peers by switch port; here endpoints
// are (host, routed IP) pairs supplied by a topology builder, so the same
// traffic patterns stretch across racks and exercise trunks + ECMP:
//
//   * rack incast  — many senders, one sink (Pattern::kManyToOne), the
//     classic partition/aggregate storm.
//   * RackAllReduce — parameter-server allreduce as pure communication:
//     a reduce coflow (workers -> PS), then, once the PS holds the full
//     vector, a broadcast coflow (PS -> workers). Completion of both is
//     the allreduce's CCT story on a fabric with no in-network compute.
//
// Every flow varies its UDP source port, so per-flow ECMP spreads a
// multi-flow coflow over the spine uplinks while each flow stays on one
// path (no reordering).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "coflow/coflow.hpp"
#include "coflow/tracker.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace adcp::topo {
class Network;
}

namespace adcp::workload {

/// One addressable endpoint of a multi-switch topology: the host object
/// and the address the topology's forwarding plan routes to it.
struct RackHost {
  net::Host* host = nullptr;
  std::uint32_t ip = 0;
};

/// Every host of `net` with its address, in host-index order.
[[nodiscard]] std::vector<RackHost> rack_hosts(topo::Network& net);

/// The UDP source port a flow advertises (varies per flow so the ECMP
/// 5-tuple hash spreads flows; stable per flow so paths never change).
[[nodiscard]] constexpr std::uint16_t rack_flow_udp_src(std::uint64_t flow_id) {
  return static_cast<std::uint16_t>(40'000 + flow_id % 20'000);
}

struct RackIncastParams {
  std::uint32_t sink = 0;     ///< index into the host list
  std::uint32_t senders = 8;  ///< the first N hosts, skipping the sink
  std::uint32_t packets_per_sender = 32;
  std::uint32_t elems_per_packet = 8;
  std::uint16_t coflow_id = 7001;
  std::uint32_t flow_base = 70'000;  ///< flow id = flow_base + sender slot
};

/// The incast as a coflow descriptor — register with a CoflowTracker
/// before start_rack_incast for CCT measurement.
[[nodiscard]] coflow::CoflowDescriptor rack_incast_descriptor(const RackIncastParams& params,
                                                              std::size_t host_count);

/// Schedules every sender's packets at `when`; NIC pacing serializes each
/// sender's stream at its link rate.
void start_rack_incast(std::span<RackHost> hosts, const RackIncastParams& params,
                       sim::Time when = 0);

struct RackAllReduceParams {
  std::uint32_t ps = 0;                    ///< parameter-server host index
  std::vector<std::uint32_t> workers;      ///< worker host indices (!= ps)
  std::uint32_t vector_len = 256;          ///< gradient elements per worker
  std::uint32_t elems_per_packet = 8;
  std::uint16_t reduce_coflow = 7100;
  std::uint16_t bcast_coflow = 7101;
  std::uint32_t flow_base = 71'000;

  [[nodiscard]] std::uint32_t packets_per_worker() const {
    return (vector_len + elems_per_packet - 1) / elems_per_packet;
  }
};

/// Two-phase allreduce (reduce to the PS, broadcast back). The broadcast
/// is data-driven: it starts the moment the PS has received every reduce
/// packet, so cross-rack latency and trunk contention shape the total
/// completion time. Instances must stay at a stable address once
/// attach()ed (host callbacks capture `this`).
class RackAllReduce {
 public:
  explicit RackAllReduce(RackAllReduceParams params) : params_(std::move(params)) {}
  RackAllReduce(const RackAllReduce&) = delete;
  RackAllReduce& operator=(const RackAllReduce&) = delete;

  [[nodiscard]] coflow::CoflowDescriptor reduce_descriptor() const;
  [[nodiscard]] coflow::CoflowDescriptor broadcast_descriptor() const;

  /// Installs the PS completion hook and per-worker broadcast counters.
  /// `tracker` (optional) receives both coflows' start/deliver events.
  /// On a sharded Network pass the PS host's own shard
  /// (`net.sim_of_host(params.ps)`): the broadcast fires from the PS's rx
  /// callback, so its sends must land on the PS's simulator. The reduce
  /// counter stays PS-shard-confined; the broadcast counter is atomic
  /// because every worker shard's sink increments it.
  void attach(std::span<RackHost> hosts, sim::Simulator& sim,
              coflow::CoflowTracker* tracker = nullptr);

  /// Registers the reduce coflow and schedules every worker's sends.
  void start(sim::Time when = 0);

  [[nodiscard]] std::uint64_t broadcast_received() const {
    return bcast_received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool broadcast_started() const { return broadcast_started_; }
  [[nodiscard]] bool complete() const {
    const std::uint64_t expected =
        static_cast<std::uint64_t>(params_.workers.size()) * params_.packets_per_worker();
    return broadcast_started_ && broadcast_received() >= expected;
  }

 private:
  void start_broadcast();

  RackAllReduceParams params_;
  std::vector<RackHost> hosts_;
  sim::Simulator* sim_ = nullptr;
  coflow::CoflowTracker* tracker_ = nullptr;
  std::uint64_t reduce_received_ = 0;  ///< PS-shard-confined
  std::atomic<std::uint64_t> bcast_received_{0};  ///< one increment per worker shard
  bool broadcast_started_ = false;     ///< PS-shard-confined
};

}  // namespace adcp::workload

// The Application-Defined Coflow Processor (paper Fig. 4).
//
// Data path: RX (port rate) → 1:m demux → edge ingress pipeline (fraction
// of port rate, §3.3) → TM1 (application placement / merge, §3.1) →
// central pipeline (global partitioned area; array engine, §3.2) → TM2
// (classic scheduler) → edge egress pipeline → m:1 mux → TX (port rate).
//
// Because TM2 sits after the central pipelines, a result computed in ANY
// central pipeline can exit through ANY port — the property RMT lacks
// (Fig. 2 vs Fig. 5).
#pragma once

#include <cstdint>
#include <vector>

#include "chassis/chassis.hpp"
#include "core/config.hpp"
#include "core/program.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::core {

/// Snapshot view of the switch counters (registry metrics are the source
/// of truth; see AdcpSwitch::stats()).
using AdcpStats = chassis::SwitchStats;

/// A simulated ADCP switch. Construct, load_program, attach a net::Fabric,
/// drive the Simulator.
class AdcpSwitch final : public chassis::Chassis {
 public:
  /// `scope` names this switch in a shared MetricRegistry (TM1/TM2 and the
  /// pool register as "<scope>.tm1" / "<scope>.tm2" / "<scope>.pool");
  /// detached (the default) falls back to a private registry under "adcp".
  AdcpSwitch(sim::Simulator& sim, const AdcpConfig& config, sim::Scope scope = {});

  /// Installs the program; must be called before traffic. `program.placement`
  /// is mandatory.
  void load_program(AdcpProgram program);

  /// Re-attempts draining central pipeline `cp` — call after unblocking a
  /// strict MergeScheduler (e.g. via mark_flow_done).
  void kick_central(std::uint32_t cp) { kick(central_, cp); }

  [[nodiscard]] const AdcpConfig& config() const { return config_; }
  [[nodiscard]] AdcpStats stats() const { return switch_stats(); }
  tm::TrafficManager& tm1() { return *central_.tm; }
  tm::TrafficManager& tm2() { return *egress_.tm; }
  pipeline::Pipeline& central_pipe(std::uint32_t i) { return central_pipes_.at(i); }
  pipeline::Pipeline& ingress_pipe(std::uint32_t i) { return ingress_pipes_.at(i); }
  [[nodiscard]] std::uint64_t central_packets(std::uint32_t i) const {
    return central_pipes_.at(i).packets();
  }

 private:
  /// 1:m demux onto an edge ingress pipeline, once the packet is received.
  void on_rx(packet::Packet pkt) override;
  void after_ingress(TransitSlot* t);
  /// TM1 admission of a packet leaving the edge ingress pipeline.
  void enqueue_central(packet::Packet pkt);
  /// TM2 admission onto one of pkt.meta.egress_port's edge egress pipes.
  void forward(packet::Packet pkt) override;
  /// TM1 output `out` feeds central pipe `out`; TM2 output `out` feeds
  /// edge egress pipe `out`.
  const pipeline::Pipeline* start(Feed& feed, std::uint32_t out, packet::Packet pkt) override;
  void after_egress(TransitSlot* t);

  AdcpConfig config_;
  tm::PlacementFn placement_;
  DemuxFn demux_;
  DemuxFn egress_demux_;

  std::vector<pipeline::Pipeline> ingress_pipes_;  // port_count * m
  std::vector<pipeline::Pipeline> central_pipes_;  // central_pipeline_count
  std::vector<pipeline::Pipeline> egress_pipes_;   // port_count * m
  Feed central_;  // TM1: outputs = central pipes (TM2 is the chassis egress_)

  std::vector<std::uint32_t> rr_demux_;  // per port (default demux)
};

}  // namespace adcp::core

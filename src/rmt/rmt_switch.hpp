// The classic RMT switch of the paper's Figure 1, as a discrete-event model.
//
// Data path: RX serialization → parser → ingress pipeline (shared by the
// port's group) → traffic manager (output-buffered shared memory, one queue
// per egress port) → egress pipeline (re-parse, egress stages) → deparse →
// TX serialization. Plus the recirculation path: the only RMT mechanism for
// re-shuffling a flow to a different pipeline, at the cost of a second full
// pass and recirculation-port bandwidth (paper §1, issue 1).
#pragma once

#include <cstdint>
#include <vector>

#include "chassis/chassis.hpp"
#include "pipeline/pipeline.hpp"
#include "rmt/config.hpp"
#include "rmt/program.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::rmt {

/// Snapshot view of the switch counters (registry metrics are the source
/// of truth; see RmtSwitch::stats()).
struct RmtStats : chassis::SwitchStats {
  std::uint64_t recirculations = 0;
  std::uint64_t recirc_bytes = 0;
  std::uint64_t recirc_limit_drops = 0;
};

/// A simulated RMT switch. Construct, install a program, attach a Fabric
/// (net::Fabric wires hosts and the TX handler), then drive the Simulator.
class RmtSwitch final : public chassis::Chassis {
 public:
  /// `scope` names this switch in a shared MetricRegistry (sub-components
  /// register as "<scope>.tm", "<scope>.pool"); detached (the default)
  /// falls back to a private registry under "rmt".
  RmtSwitch(sim::Simulator& sim, const RmtConfig& config, sim::Scope scope = {});

  /// Installs `program`: builds parser/deparser and runs the setup hooks on
  /// every ingress and egress pipeline. Call before injecting traffic.
  void load_program(RmtProgram program);

  [[nodiscard]] const RmtConfig& config() const { return config_; }
  [[nodiscard]] RmtStats stats() const {
    return RmtStats{switch_stats(), recirculations_.value(), recirc_bytes_.value(),
                    recirc_limit_drops_.value()};
  }
  [[nodiscard]] const tm::TrafficManager& traffic_manager() const { return *egress_.tm; }
  pipeline::Pipeline& ingress_pipe(std::uint32_t i) { return ingress_pipes_.at(i); }

 private:
  /// Ingress pipeline of the port's group (also the recirculation re-entry).
  void on_rx(packet::Packet pkt) override;
  void after_ingress(TransitSlot* t);
  /// TM admission at pkt.meta.egress_port.
  void forward(packet::Packet pkt) override;
  void fan_out(packet::Packet pkt, const std::vector<packet::PortId>& ports) override;
  /// The egress pipe of the port's group, fed by the TM's queue for `port`.
  const pipeline::Pipeline* start(Feed& feed, std::uint32_t port, packet::Packet pkt) override;
  void after_egress(TransitSlot* t);
  void recirculate(packet::Packet pkt, std::uint32_t pipe);

  RmtConfig config_;
  sim::Counter& recirc_limit_drops_;
  sim::Counter& recirculations_;
  sim::Counter& recirc_bytes_;
  std::vector<pipeline::Pipeline> ingress_pipes_;
  std::vector<pipeline::Pipeline> egress_pipes_;
  std::vector<sim::Time> recirc_free_;  // per pipeline
};

}  // namespace adcp::rmt

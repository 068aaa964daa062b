// The interface every simulated switch exposes to the network.
#pragma once

#include <cstdint>
#include <functional>

#include "packet/packet.hpp"

namespace adcp::telem {
class TelemetryTap;
}  // namespace adcp::telem

namespace adcp::net {

/// Called when the last bit of `pkt` leaves TX `port`.
using TxHandler = std::function<void(packet::PortId port, packet::Packet pkt)>;

/// A switch as seen from its ports. Implemented once, by chassis::Chassis
/// (RX/TX serialization, drop accounting, the telemetry tap, TM admission,
/// the flow fast path, multicast tables); rmt::RmtSwitch, core::AdcpSwitch
/// and rtc::RtcSwitch derive from it and add only their datapaths.
///
/// Canonical construction contract (all three models):
///
///   <X>Switch(sim::Simulator& sim, const <X>Config& config,
///             sim::Scope scope = {});
///
///  * `config` is taken by const reference and copied; it must pass
///    `config.validate()`.
///  * `scope` names the switch in a shared sim::MetricRegistry
///    (sub-components hang off it: "<scope>.tm", "<scope>.pool", ...). A
///    detached scope (the default) falls back to a private registry whose
///    prefix is the model's own lowercase name: "rmt" / "adcp" / "rtc".
///  * Construction is cheap: heavy state (pipeline stages, their register
///    files and array engines) is reserved, not materialized — a stage is
///    built when a program names it and its registers on first write
///    (pipeline::Pipeline, mat::RegisterFile), so building a fabric of
///    thousands of switches costs what the workload touches, not what the
///    configs declare.
///  * `load_program()` must run before traffic. Programs default to one
///    process-wide parse graph / deparser per model, so identical switches
///    share one immutable graph.
class SwitchDevice {
 public:
  virtual ~SwitchDevice() = default;

  /// Delivers a packet whose first bit reaches RX `port` at the simulator's
  /// current time. The device charges RX serialization internally.
  virtual void inject(packet::PortId port, packet::Packet pkt) = 0;

  /// Installs the egress callback (replacing any previous one).
  virtual void set_tx_handler(TxHandler handler) = 0;

  [[nodiscard]] virtual std::uint32_t port_count() const = 0;
  [[nodiscard]] virtual double port_gbps() const = 0;

  /// Arms (or, with nullptr, disarms) the switch's telemetry tap: the model
  /// stamps TM queue depths into packet metadata, calls the tap at every TX
  /// and drop site, and the tap may append INT trailer bytes before the TX
  /// serialization window is computed (see telem/tap.hpp). The tap must
  /// outlive the device. Default no-op so devices without telemetry support
  /// need no changes.
  virtual void set_telemetry_tap(telem::TelemetryTap* /*tap*/) {}
};

}  // namespace adcp::net

// The run-to-completion switch model (BMv2 / Trio / dRMT class).
//
// Data path: RX serialization → central dispatch queue → first available
// processor runs the program to completion over SHARED state → TX
// serialization. Latency is program-dependent and variable (queueing at
// the dispatcher); throughput caps at the processor pool, not at a
// pipeline clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "chassis/chassis.hpp"
#include "mat/array_engine.hpp"
#include "mat/register.hpp"
#include "rtc/config.hpp"
#include "tm/queue.hpp"

namespace adcp::rtc {

/// Lane width of the default RTC parse graph: RTC is unconstrained. Fast-path
/// admission mirrors the parser's lane-budget rejection with it.
inline constexpr std::size_t kRtcParseLanes = 64;

/// The memory every processor shares — registers for stateful programs and
/// an array engine for batch operations. Because it is one pool (not
/// per-pipeline), any coflow converges here by construction; the cost is
/// the per-access cycles in RtcConfig.
struct SharedState {
  mat::RegisterFile registers{1 << 16};
  mat::ArrayMatEngine engine{mat::ArrayEngineConfig{}};
};

/// A run-to-completion program: transforms the PHV against the shared
/// state and returns the processor cycles consumed (memory accesses are
/// charged by the program via config.memory_access_cycles). Forwarding
/// metadata fields steer the packet exactly as on the other switches.
using RtcProgramFn =
    std::function<std::uint64_t(packet::Phv&, SharedState&, const RtcConfig&)>;

/// A complete RTC program.
struct RtcProgram {
  /// The parse graph and deparser the switch installs. By default every
  /// RTC switch shares the process-wide standard pair.
  std::shared_ptr<const packet::ParseGraph> shared_parse =
      packet::shared_standard_parse_graph<kRtcParseLanes>();
  std::shared_ptr<const packet::Deparser> shared_deparse = packet::shared_standard_deparser();
  RtcProgramFn run;  ///< REQUIRED
  /// What this program vouches for the flow fast path (DESIGN.md §13).
  /// Provide it only when `run`'s verdict AND cycle cost are functions of
  /// the flow signature alone; a default contract keeps the path disarmed.
  fastpath::FastpathContract fastpath;
};

/// Snapshot view of the switch counters (registry metrics are the source
/// of truth; see RtcSwitch::stats()).
struct RtcStats : chassis::SwitchStats {
  std::uint64_t queue_drops = 0;  ///< dispatch queue overflow
};

/// A simulated run-to-completion switch.
class RtcSwitch final : public chassis::Chassis {
 public:
  /// `scope` names this switch in a shared MetricRegistry; detached (the
  /// default) falls back to a private registry under "rtc".
  RtcSwitch(sim::Simulator& sim, const RtcConfig& config, sim::Scope scope = {});

  void load_program(RtcProgram program);

  [[nodiscard]] const RtcConfig& config() const { return config_; }
  [[nodiscard]] RtcStats stats() const { return RtcStats{switch_stats(), queue_drops_.value()}; }
  SharedState& shared() { return shared_; }
  /// Per-packet residence time (RX done -> TX start), picoseconds.
  [[nodiscard]] const sim::Histogram& latency() const { return latency_; }

 private:
  /// Central dispatch queue admission, once the packet is fully received.
  void on_rx(packet::Packet pkt) override;
  void try_dispatch();
  void forward(packet::Packet pkt) override { transmit(std::move(pkt)); }

  RtcConfig config_;
  sim::Counter& queue_drops_;
  sim::Histogram& latency_;
  RtcProgramFn run_;
  SharedState shared_;
  std::vector<sim::Time> proc_free_;  // per processor
  tm::PacketQueue dispatch_queue_;
  bool dispatch_pending_ = false;
};

}  // namespace adcp::rtc

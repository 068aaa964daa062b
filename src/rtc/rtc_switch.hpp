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
#include <optional>
#include <unordered_map>
#include <vector>

#include "fastpath/fastpath.hpp"
#include "mat/array_engine.hpp"
#include "mat/register.hpp"
#include "net/device.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "rtc/config.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "sim/stats.hpp"
#include "tm/queue.hpp"

namespace adcp::rtc {

/// Lane width of the default RTC parse graph (and of the rtc tier template
/// in topo::TierProfile — keep the two in sync: fast-path admission
/// mirrors the parser's lane-budget rejection with it).
inline constexpr std::size_t kRtcParseLanes = 64;

/// The memory every processor shares — registers for stateful programs and
/// an array engine for batch operations. Because it is one pool (not
/// per-pipeline), any coflow converges here by construction; the cost is
/// the per-access cycles in RtcConfig.
struct SharedState {
  explicit SharedState(bool eager = false)
      : registers(1 << 16, eager), engine(mat::ArrayEngineConfig{.eager_state = eager}) {}

  mat::RegisterFile registers;
  mat::ArrayMatEngine engine;
};

/// A run-to-completion program: transforms the PHV against the shared
/// state and returns the processor cycles consumed (memory accesses are
/// charged by the program via config.memory_access_cycles). Forwarding
/// metadata fields steer the packet exactly as on the other switches.
using RtcProgramFn =
    std::function<std::uint64_t(packet::Phv&, SharedState&, const RtcConfig&)>;

/// A complete RTC program.
struct RtcProgram {
  packet::ParseGraph parse = packet::standard_parse_graph(kRtcParseLanes);
  packet::Deparser deparse = packet::standard_deparser();
  /// Template sharing (topo::SwitchTemplate): when set, these override
  /// `parse`/`deparse` and the switch holds the shared_ptr instead of
  /// copying — every identical switch in a fabric references one graph.
  std::shared_ptr<const packet::ParseGraph> shared_parse;
  std::shared_ptr<const packet::Deparser> shared_deparse;
  RtcProgramFn run;  ///< REQUIRED
  /// What this program vouches for the flow fast path (DESIGN.md §13).
  /// Provide it only when `run`'s verdict AND cycle cost are functions of
  /// the flow signature alone; a default contract keeps the path disarmed.
  fastpath::FastpathContract fastpath;
};

/// Snapshot view of the switch counters (registry metrics are the source
/// of truth; see RtcSwitch::stats()).
struct RtcStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t parse_drops = 0;
  std::uint64_t program_drops = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t queue_drops = 0;  ///< dispatch queue overflow
  sim::Time first_tx = 0;
  sim::Time last_tx = 0;
};

/// Registry-backed switch counters, canonical names shared with the other
/// switch models; "drops.dispatch_queue" is the RTC-specific reason.
struct RtcMetrics {
  explicit RtcMetrics(const sim::Scope& s)
      : rx_packets(s.counter("rx.packets")),
        rx_bytes(s.counter("rx.bytes")),
        tx_packets(s.counter("tx.packets")),
        tx_bytes(s.counter("tx.bytes")),
        parse_drops(s.counter("drops.parse")),
        program_drops(s.counter("drops.program")),
        no_route_drops(s.counter("drops.no_route")),
        queue_drops(s.counter("drops.dispatch_queue")),
        latency(s.histogram("latency.residence_ps")) {}

  sim::Counter& rx_packets;
  sim::Counter& rx_bytes;
  sim::Counter& tx_packets;
  sim::Counter& tx_bytes;
  sim::Counter& parse_drops;
  sim::Counter& program_drops;
  sim::Counter& no_route_drops;
  sim::Counter& queue_drops;
  sim::Histogram& latency;
};

/// A simulated run-to-completion switch.
class RtcSwitch final : public net::SwitchDevice {
 public:
  /// `scope` names this switch in a shared MetricRegistry; detached (the
  /// default) falls back to a private registry under "rtc".
  RtcSwitch(sim::Simulator& sim, const RtcConfig& config, sim::Scope scope = {});

  void load_program(RtcProgram program);
  void set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports);

  // SwitchDevice interface.
  void inject(packet::PortId port, packet::Packet pkt) override;
  void set_tx_handler(net::TxHandler handler) override { tx_handler_ = std::move(handler); }
  [[nodiscard]] std::uint32_t port_count() const override { return config_.port_count; }
  [[nodiscard]] double port_gbps() const override { return config_.port_gbps; }
  void set_telemetry_tap(telem::TelemetryTap* tap) override { tap_ = tap; }

  [[nodiscard]] const RtcConfig& config() const { return config_; }
  [[nodiscard]] RtcStats stats() const {
    return RtcStats{metrics_.rx_packets.value(),     metrics_.rx_bytes.value(),
                    metrics_.tx_packets.value(),     metrics_.tx_bytes.value(),
                    metrics_.parse_drops.value(),    metrics_.program_drops.value(),
                    metrics_.no_route_drops.value(), metrics_.queue_drops.value(),
                    first_tx_,                       last_tx_};
  }
  /// The registry this switch (and its pool) report into.
  [[nodiscard]] sim::MetricRegistry& metrics() { return *scope_.registry(); }
  [[nodiscard]] const sim::Scope& metric_scope() const { return scope_; }
  /// The installed parse graph / deparser. Shared (use_count > 1) when the
  /// program came from a topo::SwitchTemplate; owned otherwise.
  [[nodiscard]] const std::shared_ptr<const packet::ParseGraph>& parse_graph() const {
    return parse_graph_;
  }
  [[nodiscard]] const std::shared_ptr<const packet::Deparser>& deparser() const {
    return deparser_;
  }
  SharedState& shared() { return shared_; }
  /// Per-packet residence time (RX done -> TX start), picoseconds.
  [[nodiscard]] const sim::Histogram& latency() const { return metrics_.latency; }
  [[nodiscard]] double achieved_tx_gbps() const;

  /// The switch-internal recycling pool.
  packet::Pool& pool() { return pool_; }

  /// Flow fast-path counters (empty stats when the fast path is off).
  /// Deliberately not registry-backed: snapshots must be byte-identical
  /// cache-on vs cache-off (topo::Network::export_fastpath reports them).
  [[nodiscard]] fastpath::FlowCacheStats fastpath_stats() const {
    return fast_ ? fast_->stats() : fastpath::FlowCacheStats{};
  }

 private:
  /// A dispatched packet's state while its processor runs, pooled and
  /// handed to the completion by pointer: a Phv is far larger than the
  /// inline callback capacity, so capturing it by value would heap-spill.
  struct TransitSlot {
    packet::ParseResult pr;
    packet::Packet pkt;
    sim::Time queued_at = 0;
    std::uint64_t work = 0;  ///< processor cycles the program charged
  };

  /// Fast-path continuation state, pooled ({this, Packet} alone fills the
  /// inline callback capacity, so the wire view and verdict ride here).
  struct FastSlot {
    packet::Packet pkt;
    fastpath::WireView wire;
    packet::PortId egress = packet::kInvalidPort;
    fastpath::Patch patch = fastpath::Patch::kForward;
    sim::Time queued_at = 0;
  };

  /// Probes the verdict cache for the packet a free processor is about to
  /// take; on a hit, charges the memoized cycle count and schedules the
  /// copy-and-patch completion.
  bool try_fast_dispatch(packet::Packet& pkt, std::size_t proc, sim::Time queued_at);
  void finish_fast(FastSlot* f);
  /// Memoizes a slow-path verdict (called before deparse so the original
  /// wire bytes are still available).
  void fill_fastpath(const packet::Packet& original, const packet::Phv& phv,
                     std::uint64_t work, packet::PortId egress);

  void try_dispatch();
  void finish(TransitSlot* t);
  /// TX serialization onto pkt.meta.egress_port, then the TX handler.
  void transmit(packet::Packet pkt);

  sim::Simulator* sim_;
  RtcConfig config_;
  // Declared before pool_/metrics_, which register through the scope.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  RtcMetrics metrics_;
  sim::SpanRecorder spans_;
  packet::Pool pool_;
  sim::SlotPool<TransitSlot> transit_;
  sim::SlotPool<FastSlot> fast_slots_;
  fastpath::FastpathContract contract_;
  std::optional<fastpath::FlowCache> fast_;  ///< armed by load_program
  std::optional<packet::Parser> parser_;
  std::shared_ptr<const packet::ParseGraph> parse_graph_;
  std::shared_ptr<const packet::Deparser> deparser_;
  RtcProgramFn run_;
  SharedState shared_;
  net::TxHandler tx_handler_;
  telem::TelemetryTap* tap_ = nullptr;  ///< not owned; null = disarmed
  std::unordered_map<std::uint32_t, std::vector<packet::PortId>> multicast_;

  std::vector<sim::Time> rx_free_;    // per port
  std::vector<sim::Time> tx_free_;    // per port
  std::vector<sim::Time> proc_free_;  // per processor
  tm::PacketQueue dispatch_queue_;
  bool dispatch_pending_ = false;
  sim::Time first_tx_ = 0;
  sim::Time last_tx_ = 0;
};

}  // namespace adcp::rtc


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
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fastpath/fastpath.hpp"
#include "net/device.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "rmt/config.hpp"
#include "rmt/program.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::rmt {

/// Snapshot view of the switch counters (registry metrics are the source
/// of truth; see RmtSwitch::stats()).
struct RmtStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t parse_drops = 0;
  std::uint64_t program_drops = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t recirculations = 0;
  std::uint64_t recirc_bytes = 0;
  std::uint64_t recirc_limit_drops = 0;
  sim::Time first_tx = 0;
  sim::Time last_tx = 0;
};

/// Registry-backed switch counters; one canonical name per drop reason,
/// shared verbatim with the other switch models.
struct RmtMetrics {
  explicit RmtMetrics(const sim::Scope& s)
      : rx_packets(s.counter("rx.packets")),
        rx_bytes(s.counter("rx.bytes")),
        tx_packets(s.counter("tx.packets")),
        tx_bytes(s.counter("tx.bytes")),
        parse_drops(s.counter("drops.parse")),
        program_drops(s.counter("drops.program")),
        no_route_drops(s.counter("drops.no_route")),
        recirc_limit_drops(s.counter("drops.recirc_limit")),
        recirculations(s.counter("recirc.passes")),
        recirc_bytes(s.counter("recirc.bytes")) {}

  sim::Counter& rx_packets;
  sim::Counter& rx_bytes;
  sim::Counter& tx_packets;
  sim::Counter& tx_bytes;
  sim::Counter& parse_drops;
  sim::Counter& program_drops;
  sim::Counter& no_route_drops;
  sim::Counter& recirc_limit_drops;
  sim::Counter& recirculations;
  sim::Counter& recirc_bytes;
};

/// A simulated RMT switch. Construct, install a program, attach a Fabric
/// (net::Fabric wires hosts and the TX handler), then drive the Simulator.
class RmtSwitch final : public net::SwitchDevice {
 public:
  /// `scope` names this switch in a shared MetricRegistry (sub-components
  /// register as "<scope>.tm", "<scope>.pool"); detached (the default)
  /// falls back to a private registry under "rmt".
  RmtSwitch(sim::Simulator& sim, const RmtConfig& config, sim::Scope scope = {});

  /// Installs `program`: builds parser/deparser and runs the setup hooks on
  /// every ingress and egress pipeline. Call before injecting traffic.
  void load_program(RmtProgram program);

  /// Registers multicast group `group` -> `ports` (programs select it via
  /// kMetaMulticastGroup).
  void set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports);

  // SwitchDevice interface.
  void inject(packet::PortId port, packet::Packet pkt) override;
  void set_tx_handler(net::TxHandler handler) override { tx_handler_ = std::move(handler); }
  [[nodiscard]] std::uint32_t port_count() const override { return config_.port_count; }
  [[nodiscard]] double port_gbps() const override { return config_.port_gbps; }
  void set_telemetry_tap(telem::TelemetryTap* tap) override { tap_ = tap; }

  [[nodiscard]] const RmtConfig& config() const { return config_; }
  [[nodiscard]] RmtStats stats() const {
    return RmtStats{metrics_.rx_packets.value(),        metrics_.rx_bytes.value(),
                    metrics_.tx_packets.value(),        metrics_.tx_bytes.value(),
                    metrics_.parse_drops.value(),       metrics_.program_drops.value(),
                    metrics_.no_route_drops.value(),    metrics_.recirculations.value(),
                    metrics_.recirc_bytes.value(),      metrics_.recirc_limit_drops.value(),
                    first_tx_,                          last_tx_};
  }
  /// The registry this switch (and its TM and pool) report into.
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
  [[nodiscard]] const tm::TrafficManager& traffic_manager() const { return *tm_; }
  pipeline::Pipeline& ingress_pipe(std::uint32_t i) { return ingress_pipes_.at(i); }
  pipeline::Pipeline& egress_pipe(std::uint32_t i) { return egress_pipes_.at(i); }

  /// Achieved egress throughput over the interval [first_tx, last_tx].
  [[nodiscard]] double achieved_tx_gbps() const;

  /// The switch-internal recycling pool (deparse outputs, multicast copies,
  /// retired originals and drops all flow through it).
  packet::Pool& pool() { return pool_; }

  /// Flow fast-path counters (empty stats when the fast path is off).
  /// Deliberately not registry-backed: snapshots must be byte-identical
  /// cache-on vs cache-off (topo::Network::export_fastpath reports them).
  [[nodiscard]] fastpath::FlowCacheStats fastpath_stats() const {
    return fast_ ? fast_->stats() : fastpath::FlowCacheStats{};
  }

 private:
  /// Per-packet pipeline-transit state, pooled and handed to scheduler
  /// continuations by pointer: a Phv is far larger than the inline callback
  /// capacity, so capturing it by value would heap-spill every packet.
  struct TransitSlot {
    packet::ParseResult pr;
    packet::Packet pkt;
    packet::PortId port = packet::kInvalidPort;
    pipeline::Transit tr;  ///< ingress transit, kept for fast-path fills
  };

  /// Fast-path continuation state, pooled like TransitSlot ({this, Packet}
  /// alone fills the inline callback capacity, so the wire view and the
  /// verdict ride in the slot).
  struct FastSlot {
    packet::Packet pkt;
    fastpath::WireView wire;
    packet::PortId egress = packet::kInvalidPort;
    packet::PortId port = packet::kInvalidPort;
    fastpath::Patch patch = fastpath::Patch::kForward;
  };

  /// Probes the verdict cache; on a hit, advances the ingress pipeline and
  /// schedules the copy-and-patch continuation (consuming `pkt`).
  bool try_fast_ingress(packet::Packet& pkt);
  void after_ingress_fast(FastSlot* f);
  /// Static egress passthrough (contract.passthrough_edges).
  bool try_fast_egress(packet::Packet& pkt, packet::PortId port);
  void after_egress_fast(FastSlot* f);
  /// Memoizes a slow-path ingress verdict (called before finalize so the
  /// original wire bytes are still available).
  void fill_fastpath(const TransitSlot* t, packet::PortId egress);

  void enter_ingress(packet::Packet pkt);
  /// Deparse-or-passthrough: INC packets are rebuilt from the PHV into a
  /// pooled packet and the original is retired; others pass through.
  packet::Packet finalize(const packet::Phv& phv, packet::Packet original,
                          std::size_t consumed);
  void after_ingress(TransitSlot* t);
  void after_egress(TransitSlot* t);
  void recirculate(packet::Packet pkt, std::uint32_t pipe);
  /// TX serialization onto pkt.meta.egress_port, then the TX handler.
  void transmit(packet::Packet pkt);
  void try_drain(packet::PortId port);
  void drain(packet::PortId port);

  sim::Simulator* sim_;
  RmtConfig config_;
  // Declared before pool_/metrics_/tm_, which register through the scope.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  RmtMetrics metrics_;
  sim::SpanRecorder spans_;
  packet::Pool pool_;
  sim::SlotPool<TransitSlot> transit_;
  sim::SlotPool<FastSlot> fast_slots_;
  fastpath::FastpathContract contract_;
  std::optional<fastpath::FlowCache> fast_;  ///< armed by load_program
  fastpath::StaticSite egress_site_;         ///< measured passthrough timing
  std::optional<packet::Parser> parser_;
  std::shared_ptr<const packet::ParseGraph> parse_graph_;
  std::shared_ptr<const packet::Deparser> deparser_;
  std::vector<pipeline::Pipeline> ingress_pipes_;
  std::vector<pipeline::Pipeline> egress_pipes_;
  std::optional<tm::TrafficManager> tm_;
  net::TxHandler tx_handler_;
  telem::TelemetryTap* tap_ = nullptr;  ///< not owned; null = disarmed
  std::unordered_map<std::uint32_t, std::vector<packet::PortId>> multicast_;

  std::vector<sim::Time> rx_free_;      // per port
  std::vector<sim::Time> tx_free_;      // per port
  std::vector<sim::Time> recirc_free_;  // per pipeline
  std::vector<bool> drain_pending_;     // per port
  std::vector<std::uint32_t> in_flight_;  // per port: between egress pipe and TX
  sim::Time first_tx_ = 0;
  sim::Time last_tx_ = 0;
};

}  // namespace adcp::rmt

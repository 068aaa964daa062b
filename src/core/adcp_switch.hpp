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
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/program.hpp"
#include "fastpath/fastpath.hpp"
#include "net/device.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::core {

/// Snapshot view of the switch counters (registry metrics are the source
/// of truth; see AdcpSwitch::stats()).
struct AdcpStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t parse_drops = 0;
  std::uint64_t program_drops = 0;
  std::uint64_t no_route_drops = 0;
  sim::Time first_tx = 0;
  sim::Time last_tx = 0;
};

/// Registry-backed switch counters; drop reasons use the same canonical
/// names as RmtMetrics/RtcMetrics so cross-switch comparisons line up.
struct AdcpMetrics {
  explicit AdcpMetrics(const sim::Scope& s)
      : rx_packets(s.counter("rx.packets")),
        rx_bytes(s.counter("rx.bytes")),
        tx_packets(s.counter("tx.packets")),
        tx_bytes(s.counter("tx.bytes")),
        parse_drops(s.counter("drops.parse")),
        program_drops(s.counter("drops.program")),
        no_route_drops(s.counter("drops.no_route")) {}

  sim::Counter& rx_packets;
  sim::Counter& rx_bytes;
  sim::Counter& tx_packets;
  sim::Counter& tx_bytes;
  sim::Counter& parse_drops;
  sim::Counter& program_drops;
  sim::Counter& no_route_drops;
};

/// A simulated ADCP switch. Construct, load_program, attach a net::Fabric,
/// drive the Simulator.
class AdcpSwitch final : public net::SwitchDevice {
 public:
  /// `scope` names this switch in a shared MetricRegistry (TM1/TM2 and the
  /// pool register as "<scope>.tm1" / "<scope>.tm2" / "<scope>.pool");
  /// detached (the default) falls back to a private registry under "adcp"
  /// — the model's own name, matching "rmt"/"rtc" (canonical constructor
  /// contract: net::SwitchDevice). The pre-redesign fallback was "core";
  /// kDeprecatedScopeFallback keeps that spelling reachable for one
  /// release.
  AdcpSwitch(sim::Simulator& sim, const AdcpConfig& config, sim::Scope scope = {});

  /// Deprecated: the old detached-scope prefix. Code that grepped
  /// snapshots for "core.*" should move to "adcp.*"; construct with
  /// `sim::Scope` naming kDeprecatedScopeFallback to keep old names.
  static constexpr const char* kDeprecatedScopeFallback = "core";

  /// Installs the program; must be called before traffic. `program.placement`
  /// is mandatory.
  void load_program(AdcpProgram program);

  /// Registers multicast group `group` -> `ports` (selected by central
  /// programs via kMetaMulticastGroup).
  void set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports);

  /// Re-attempts draining central pipeline `cp` — call after unblocking a
  /// strict MergeScheduler (e.g. via mark_flow_done).
  void kick_central(std::uint32_t cp);

  // SwitchDevice interface.
  void inject(packet::PortId port, packet::Packet pkt) override;
  void set_tx_handler(net::TxHandler handler) override { tx_handler_ = std::move(handler); }
  [[nodiscard]] std::uint32_t port_count() const override { return config_.port_count; }
  [[nodiscard]] double port_gbps() const override { return config_.port_gbps; }
  void set_telemetry_tap(telem::TelemetryTap* tap) override { tap_ = tap; }

  [[nodiscard]] const AdcpConfig& config() const { return config_; }
  [[nodiscard]] AdcpStats stats() const {
    return AdcpStats{metrics_.rx_packets.value(),     metrics_.rx_bytes.value(),
                     metrics_.tx_packets.value(),     metrics_.tx_bytes.value(),
                     metrics_.parse_drops.value(),    metrics_.program_drops.value(),
                     metrics_.no_route_drops.value(), first_tx_,
                     last_tx_};
  }
  /// The registry this switch (and its TMs and pool) report into.
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
  tm::TrafficManager& tm1() { return *tm1_; }
  tm::TrafficManager& tm2() { return *tm2_; }
  pipeline::Pipeline& central_pipe(std::uint32_t i) { return central_pipes_.at(i); }
  pipeline::Pipeline& ingress_pipe(std::uint32_t i) { return ingress_pipes_.at(i); }
  pipeline::Pipeline& egress_pipe(std::uint32_t i) { return egress_pipes_.at(i); }
  [[nodiscard]] std::uint64_t central_packets(std::uint32_t i) const {
    return central_pipes_.at(i).packets();
  }

  /// Achieved egress throughput over [first_tx, last_tx].
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
    std::uint32_t pipe = 0;  ///< edge egress pipe (egress continuation)
    pipeline::Transit tr;    ///< central transit, kept for fast-path fills
  };

  /// Fast-path continuation state, pooled ({this, Packet} alone fills the
  /// inline callback capacity, so the wire view and verdict ride here).
  struct FastSlot {
    packet::Packet pkt;
    fastpath::WireView wire;
    packet::PortId egress = packet::kInvalidPort;
    std::uint32_t pipe = 0;  ///< edge ingress pipe (RX continuation)
    fastpath::Patch patch = fastpath::Patch::kForward;
  };

  /// Static edge-ingress passthrough (contract.passthrough_edges).
  bool try_fast_ingress(packet::Packet& pkt, std::uint32_t edge_pipe);
  void after_ingress_fast(FastSlot* f);
  /// Probes the verdict cache at the central pipeline — the ADCP verdict
  /// site; on a hit, advances the pipe and schedules copy-and-patch.
  bool try_fast_central(packet::Packet& pkt, std::uint32_t cp);
  void after_central_fast(FastSlot* f);
  /// Static edge-egress passthrough.
  bool try_fast_egress(packet::Packet& pkt, std::uint32_t edge_pipe);
  void after_egress_fast(FastSlot* f);
  /// Memoizes a slow-path central verdict (called before finalize so the
  /// original wire bytes are still available).
  void fill_fastpath(const TransitSlot* t, packet::PortId egress);

  void enter_ingress(packet::Packet pkt, std::uint32_t edge_pipe);
  /// Deparse-or-passthrough: INC packets are rebuilt from the PHV into a
  /// pooled packet and the original is retired; others pass through.
  packet::Packet finalize(const packet::Phv& phv, packet::Packet original,
                          std::size_t consumed);
  void after_ingress(TransitSlot* t);
  /// TM1 admission of a packet leaving the edge ingress pipeline.
  void enqueue_central(packet::Packet pkt);
  void try_drain_central(std::uint32_t cp);
  void drain_central(std::uint32_t cp);
  void after_central(TransitSlot* t);
  void route_to_egress(packet::Packet pkt);
  void kick_port_egress(std::uint32_t port);
  void try_drain_egress(std::uint32_t edge_pipe);
  void drain_egress(std::uint32_t edge_pipe);
  void after_egress(TransitSlot* t);
  /// m:1 mux back onto pkt.meta.egress_port: TX serialization at full
  /// port rate, then the TX handler.
  void transmit(packet::Packet pkt);

  sim::Simulator* sim_;
  AdcpConfig config_;
  // Declared before pool_/metrics_ and the TMs, which register through it.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  AdcpMetrics metrics_;
  sim::SpanRecorder spans_;
  packet::Pool pool_;
  sim::SlotPool<TransitSlot> transit_;
  sim::SlotPool<FastSlot> fast_slots_;
  fastpath::FastpathContract contract_;
  std::optional<fastpath::FlowCache> fast_;  ///< armed by load_program
  fastpath::StaticSite ingress_site_;        ///< measured edge passthrough
  fastpath::StaticSite egress_site_;
  std::optional<packet::Parser> parser_;
  std::shared_ptr<const packet::ParseGraph> parse_graph_;
  std::shared_ptr<const packet::Deparser> deparser_;
  tm::PlacementFn placement_;
  DemuxFn demux_;
  DemuxFn egress_demux_;

  std::vector<pipeline::Pipeline> ingress_pipes_;  // port_count * m
  std::vector<pipeline::Pipeline> central_pipes_;  // central_pipeline_count
  std::vector<pipeline::Pipeline> egress_pipes_;   // port_count * m
  std::optional<tm::TrafficManager> tm1_;          // outputs = central pipes
  std::optional<tm::TrafficManager> tm2_;          // outputs = egress pipes
  net::TxHandler tx_handler_;
  telem::TelemetryTap* tap_ = nullptr;  ///< not owned; null = disarmed
  std::unordered_map<std::uint32_t, std::vector<packet::PortId>> multicast_;

  std::vector<sim::Time> rx_free_;            // per port
  std::vector<sim::Time> tx_free_;            // per port
  std::vector<std::uint32_t> rr_demux_;       // per port (default demux)
  std::vector<bool> central_pending_;         // per central pipe
  std::vector<bool> egress_pending_;          // per edge egress pipe
  std::vector<std::uint32_t> in_flight_;      // per port (egress pipe -> TX)
  sim::Time first_tx_ = 0;
  sim::Time last_tx_ = 0;
};

}  // namespace adcp::core

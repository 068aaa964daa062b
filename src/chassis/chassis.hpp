// The switch chassis: the plumbing every switch model shares.
//
// The paper tells its datapaths apart by what sits between RX and TX:
// RMT's port-multiplexed pipelines with recirculation (Fig. 1), ADCP's
// demux → TM1 → global partitioned area → TM2 (Fig. 4), and the
// run-to-completion processor pool. Everything around that is one switch:
// RX and TX serialization, drop accounting, the telemetry tap, TM
// admission, the flow fast path's probe and fill, parse/deparse and
// multicast tables, the TM drain loop and the pipeline transit. The chassis
// implements net::SwitchDevice once; each model derives from it and keeps
// only its datapath, reached through four virtual hooks (on_rx, forward,
// fan_out, start).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fastpath/fastpath.hpp"
#include "net/device.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::chassis {

/// Snapshot view of the counters every model keeps (registry metrics are
/// the source of truth). Models with extra drop sites extend it.
struct SwitchStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t parse_drops = 0;
  std::uint64_t program_drops = 0;
  std::uint64_t no_route_drops = 0;
};

/// Fast-path timing of a measured pipeline transit.
[[nodiscard]] inline fastpath::Timing timing_of(const pipeline::Transit& tr) {
  return {tr.cycles, tr.max_service, tr.stall_cycles, 0};
}

/// Base of every switch model; see the file comment.
class Chassis : public net::SwitchDevice {
 public:
  // Scheduled continuations hold `this`.
  Chassis(const Chassis&) = delete;
  Chassis& operator=(const Chassis&) = delete;

  /// Registers multicast group `group` -> `ports` (programs select it via
  /// kMetaMulticastGroup).
  void set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports);

  // SwitchDevice interface.
  void inject(packet::PortId port, packet::Packet pkt) final;
  void set_tx_handler(net::TxHandler handler) final { tx_handler_ = std::move(handler); }
  [[nodiscard]] std::uint32_t port_count() const final { return port_count_; }
  [[nodiscard]] double port_gbps() const final { return port_gbps_; }
  void set_telemetry_tap(telem::TelemetryTap* tap) final { tap_ = tap; }

  /// The registry this switch (and its TMs and pool) report into.
  [[nodiscard]] sim::MetricRegistry& metrics() { return *scope_.registry(); }
  [[nodiscard]] const sim::Scope& metric_scope() const { return scope_; }
  /// The installed parse graph / deparser: the process-wide standard pair
  /// for the model's lane width unless the program set its own.
  [[nodiscard]] const std::shared_ptr<const packet::ParseGraph>& parse_graph() const {
    return parse_graph_;
  }
  [[nodiscard]] const std::shared_ptr<const packet::Deparser>& deparser() const {
    return deparser_;
  }
  /// The switch-internal recycling pool (deparse outputs, multicast copies,
  /// retired originals and drops all flow through it).
  packet::Pool& pool() { return pool_; }
  /// Flow fast-path counters (empty stats when the fast path is off).
  /// Deliberately not registry-backed: snapshots must be byte-identical
  /// cache-on vs cache-off (topo::Network::export_fastpath reports them).
  [[nodiscard]] fastpath::FlowCacheStats fastpath_stats() const {
    return fast_ ? fast_->stats() : fastpath::FlowCacheStats{};
  }
  /// Achieved egress throughput over the interval [first_tx, last_tx].
  [[nodiscard]] double achieved_tx_gbps() const;

 protected:
  /// Per-packet pipeline-transit state, pooled and handed to scheduler
  /// continuations by pointer: a Phv is far larger than the inline callback
  /// capacity, so capturing it by value would heap-spill every packet.
  struct TransitSlot {
    packet::ParseResult pr;
    packet::Packet pkt;
    fastpath::Timing timing;  ///< the verdict site's cost, for fast-path fills
  };

  /// Fast-path continuation state, pooled like TransitSlot: the wire view
  /// and memoized timing add 64 bytes to {this, Packet}'s 96, past the
  /// 120-byte inline callback capacity.
  struct FastSlot {
    packet::Packet pkt;
    fastpath::WireView wire;
    fastpath::Patch patch = fastpath::Patch::kForward;
    packet::PortId egress = packet::kInvalidPort;  ///< the memoized verdict
    fastpath::Timing timing;  ///< the memoized cost of the skipped site
  };

  /// One TM's outputs, each draining into a pipeline: RMT's TM and ADCP's
  /// TM2 feed the edge egress pipes (the chassis's `egress_`), ADCP's TM1
  /// its central pipes.
  struct Feed {
    std::optional<tm::TrafficManager> tm;
    std::vector<bool> pending;   ///< per output: a drain is scheduled
    std::uint32_t per_port = 0;  ///< output o transmits on port o / per_port; 0: no port
  };

  /// `scope` names the switch in a shared registry; detached, it falls back
  /// to a private one under `fallback` (the model's own name).
  Chassis(sim::Simulator& sim, const sim::Scope& scope, const char* fallback,
          std::uint32_t port_count, double port_gbps, std::uint32_t fastpath_entries);

  /// The model's datapath, entered when a packet's last bit lands on RX
  /// (the parser runs at port speed, paper §3.3).
  virtual void on_rx(packet::Packet pkt) = 0;
  /// Continues a unicast verdict bound for pkt.meta.egress_port.
  virtual void forward(packet::Packet pkt) = 0;
  /// Continues a multicast verdict; by default forwards a pooled replica
  /// per port and retires the template.
  virtual void fan_out(packet::Packet pkt, const std::vector<packet::PortId>& ports);
  /// Starts a packet that `feed` dequeued at `out` into its pipeline (via
  /// enter); returns the pipeline that paces the next dequeue, or nullptr
  /// when the packet was a parse drop. A model without a feed never drains.
  virtual const pipeline::Pipeline* start(Feed& /*feed*/, std::uint32_t /*out*/,
                                          packet::Packet /*pkt*/) {
    return nullptr;
  }

  /// Installs a program's parse graph and deparser and re-arms the fast
  /// path from scratch: load_program may run again over a programmed switch
  /// (ControlPlane::attach does), and any memoized verdict belongs to the
  /// replaced program.
  template <typename Program>
  void install(Program& program) {
    parse_graph_ = std::move(program.shared_parse);
    parser_.emplace(parse_graph_.get());
    deparser_ = std::move(program.shared_deparse);
    arm_fastpath(std::move(program.fastpath));
  }

  /// Schedules a drain of `feed`'s output `out` now, unless one is pending,
  /// the output is empty, or its port already holds kMaxInFlightPerPort
  /// packets. Every zero-delay wake of the RMT and ADCP datapaths is here.
  void kick(Feed& feed, std::uint32_t out);
  /// Kicks every egress output that transmits on `port`.
  void kick_port(packet::PortId port);

  /// Runs `pkt` through `pipe` from now() under one `kind` span (args a0,
  /// a1). `edge` is the edge pipe's static passthrough site, or null at the
  /// model's verdict site. A fast-path hit replays the memoized timing and
  /// calls `hit(pkt)` at the exit. Otherwise the packet is parsed,
  /// `prep(phv, pkt)` writes the program's inputs, the pipeline runs, its
  /// timing is memoized, and `miss(slot)` runs at the exit. Returns false
  /// when the parse graph dropped the packet.
  template <typename Prep, typename Hit, typename Miss>
  bool enter(pipeline::Pipeline& pipe, fastpath::StaticSite* edge, sim::SpanKind kind,
             std::uint64_t a0, std::uint64_t a1, packet::Packet pkt, Prep prep, Hit hit,
             Miss miss) {
    if (FastSlot* f = edge != nullptr ? passthrough(pkt, *edge) : probe(pkt)) {
      const fastpath::Timing& m = f->timing;
      const pipeline::Transit tr =
          pipe.advance(sim_->now(), m.cycles, m.max_service, m.stall_cycles);
      spans_.span(kind, f->pkt.meta.trace_id, sim_->now(), tr.exit, a0, a1);
      sim_->at(tr.exit, [this, f, hit] { hit(unpark(f)); });
      return true;
    }
    TransitSlot* t = parse(std::move(pkt));
    if (t == nullptr) return false;
    prep(t->pr.phv, t->pkt);
    const pipeline::Transit tr = pipe.process(sim_->now(), t->pr.phv);
    if (edge != nullptr) {
      learn(*edge, tr);
    } else {
      t->timing = timing_of(tr);
    }
    spans_.span(kind, t->pkt.meta.trace_id, sim_->now(), tr.exit, a0, a1);
    sim_->at(tr.exit, [t, miss] { miss(t); });
    return true;
  }

  /// TX serialization onto pkt.meta.egress_port, then the TX handler, then
  /// a kick of the port's egress outputs. The packet holds an in-flight
  /// slot until its last bit is out.
  void transmit(packet::Packet pkt);
  /// Counts, traces, reports to the tap and retires a dropped packet, in
  /// that order: the tap may inject a postcard synchronously, which takes
  /// an event sequence number, so the order is part of the trajectory.
  void drop(packet::Packet pkt, sim::DropReason reason, sim::Counter& counter);
  /// Drops the slot's packet (kProgram) and releases the slot when its
  /// program set kMetaDrop.
  bool program_dropped(TransitSlot* t);
  /// TM admission at `output`: stamps the residency mark (and, with
  /// `stamp_depth`, the INT queue depth), reports a packet the buffer will
  /// refuse to the tap before the TM retires it, and traces the outcome.
  bool admit(tm::TrafficManager& tm, std::uint32_t output, packet::Packet pkt,
             bool stamp_depth = true);

  /// Parses `pkt` into a pooled transit slot; a packet the parse graph
  /// rejects is dropped (kParse) and yields nullptr.
  TransitSlot* parse(packet::Packet pkt);
  /// Deparse-or-passthrough of the slot's packet: INC packets are rebuilt
  /// from the PHV into a pooled packet and the original is retired; others
  /// pass through. Releases the slot.
  packet::Packet finalize(TransitSlot* t);
  /// Applies the verdict a program left in the slot's PHV: a program drop,
  /// a multicast fan-out or a unicast forward to kMetaEgressPort. Unicast
  /// verdicts are memoized for the fast path before finalize, while the
  /// original bytes are intact.
  void resolve(TransitSlot* t);
  /// A pooled copy of `tmpl` bound for `port`.
  packet::Packet replica(const packet::Packet& tmpl, packet::PortId port);

  /// Probes the verdict cache at the model's verdict site. On a hit, parks
  /// the packet (consuming it) with its verdict and the memoized timing;
  /// store-dependent behavior runs live, at the same event the slow path
  /// would run it (ctrl.* counters stay identical cache-on/off).
  FastSlot* probe(packet::Packet& pkt);
  /// Copy-and-patch of a parked packet onto its verdict; releases the slot.
  packet::Packet unpark(FastSlot* f);

  [[nodiscard]] SwitchStats switch_stats() const;

  sim::Simulator* sim_;
  // Declared before every member that registers through the scope.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  sim::SpanRecorder spans_;
  packet::Pool pool_;
  fastpath::StaticSite ingress_site_;  ///< measured edge passthroughs
  fastpath::StaticSite egress_site_;
  telem::TelemetryTap* tap_ = nullptr;  ///< not owned; null = disarmed
  Feed egress_;  ///< the TM that feeds the edge egress pipes (none on RTC)

 private:
  /// Packets allowed between egress-pipe exit and TX completion per port —
  /// a small egress FIFO so TX back-pressures the TM realistically.
  static constexpr std::uint32_t kMaxInFlightPerPort = 4;

  /// One drain of `feed`'s output `out`: dequeues, starts the packet, and
  /// reschedules while the output holds packets (see kick).
  void drain(Feed& feed, std::uint32_t out);
  [[nodiscard]] bool port_full(const Feed& feed, std::uint32_t out) const;
  /// Parks the packet for a static passthrough `site` bound for
  /// pkt.meta.egress_port (contract.passthrough_edges), or yields nullptr.
  FastSlot* passthrough(packet::Packet& pkt, const fastpath::StaticSite& site);
  /// Edge stages carry no program under the passthrough contract: the
  /// first measured transit is the timing template for every later packet.
  void learn(fastpath::StaticSite& site, const pipeline::Transit& tr);
  void arm_fastpath(fastpath::FastpathContract contract);
  [[nodiscard]] bool is_query(const fastpath::WireView& w) const;
  void fill(const TransitSlot* t, packet::PortId egress);

  sim::Counter& rx_packets_;
  sim::Counter& rx_bytes_;
  sim::Counter& tx_packets_;
  sim::Counter& tx_bytes_;
  sim::Counter& parse_drops_;
  sim::Counter& program_drops_;
  sim::Counter& no_route_drops_;
  sim::SlotPool<TransitSlot> transit_;
  sim::SlotPool<FastSlot> fast_slots_;
  std::optional<packet::Parser> parser_;
  std::shared_ptr<const packet::ParseGraph> parse_graph_;
  std::shared_ptr<const packet::Deparser> deparser_;
  fastpath::FastpathContract contract_;
  std::optional<fastpath::FlowCache> fast_;  ///< armed by install()
  std::uint32_t port_count_;
  double port_gbps_;
  std::uint32_t fastpath_entries_;
  net::TxHandler tx_handler_;
  std::unordered_map<std::uint32_t, std::vector<packet::PortId>> multicast_;
  std::vector<sim::Time> rx_free_;        ///< per port
  std::vector<sim::Time> tx_free_;        ///< per port
  std::vector<std::uint32_t> in_flight_;  ///< per port: pipe exit -> TX done
  sim::Time first_tx_ = 0;
  sim::Time last_tx_ = 0;
};

}  // namespace adcp::chassis

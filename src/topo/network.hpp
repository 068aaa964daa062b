// Multi-switch topology builder.
//
// A Network composes the single-switch building blocks into a datacenter
// fabric: one switch (RMT, ADCP, or RTC) per tier position, a net::Fabric
// attaching hosts to each edge switch's low ports, and trunks on the
// remaining ports. Two canned generators cover the shapes the coflow
// workloads need:
//
//   leaf_spine(L, S, H):  L leaf switches with H hosts each, every leaf
//                         connected to all S spines (a single pod).
//   fat_tree(k):          the classic 3-tier k-ary fat-tree — k pods of
//                         k/2 edge + k/2 aggregation switches, (k/2)^2
//                         cores, k^3/4 hosts.
//
// Forwarding is exact-match for directly attached hosts and
// longest-prefix + seeded per-flow ECMP towards the upper tiers (see
// routing.hpp for the address plan). Metrics thread through the network's
// scope: "topo.sw<i>.*" for switches/hosts/pools, "topo.trunk<i>.*" for
// trunks, plus the "topo.hops" histogram (hop count of every delivered
// packet, recovered from the wire TTL) and the derived
// "topo.ecmp.imbalance" / "topo.trunk.max_utilization" gauges
// (finalize_metrics()).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chassis/chassis.hpp"
#include "fastpath/fastpath.hpp"
#include "net/host.hpp"
#include "net/wire.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telem/collector.hpp"
#include "telem/sketch.hpp"
#include "telem/tap.hpp"
#include "topo/routing.hpp"
#include "topo/tier_profile.hpp"

namespace adcp::topo {

/// What every fabric generator takes, whatever its shape.
struct FabricParams {
  SwitchKind kind = SwitchKind::kAdcp;
  /// How every switch is provisioned: the base model configs plus the
  /// fabric-wide fast-path and telemetry settings. Every switch keeps its
  /// stage state on first touch and shares its model's parse graph /
  /// deparser. Replaces the former raw-config construction paths.
  TierProfile profile{};
  /// Every trunk's link; access links are always the lossless net::Link{}
  /// (100 G, 500 ns).
  net::Link trunk_link{100.0, 1000 * sim::kNanosecond};
  std::uint64_t ecmp_seed = 0x7e1e'c0de;
  /// Seeds the per-direction loss streams of lossy trunks.
  std::uint64_t loss_seed = 0xfab21c;
  /// Span tracing (off by default; see sim/span.hpp). When enabled the
  /// network arms every registry's SpanBuffer and stamps sampled flows at
  /// the sending hosts; read the result through span_buffers().
  sim::TraceConfig trace{};
  /// Gives every *hosted* switch an in-band control channel: one extra
  /// management port (id = the switch's old port count) and a control
  /// address make_ip(pod, tor, 255) routed to it by an exact FIB entry, so
  /// a ctrl::ControlAgent can reach any edge switch through the ordinary
  /// fabric (see ctrl_ip_of/mgmt_port_of/set_control_sink). Requires at
  /// most 255 hosts per switch (host address 255 becomes the control
  /// address).
  bool control_channel = false;
};

/// Parameters of the single-pod leaf–spine generator.
struct LeafSpineParams : FabricParams {
  std::uint32_t leaves = 4;
  std::uint32_t spines = 2;
  std::uint32_t hosts_per_leaf = 16;
};

/// Parameters of the k-ary fat-tree generator (`k` even, >= 2).
struct FatTreeParams : FabricParams {
  std::uint32_t k = 4;
};

/// A fully wired multi-switch fabric. Construct with one of the parameter
/// structs; hosts are addressed by a global index (rack-major) and carry
/// the IPs of routing.hpp's address plan. Not movable: switches, fabrics
/// and trunks hold stable self-references through the event queue.
///
/// Every fabric is wired over a shard table: one record per shard holding
/// its Simulator, its "topo" scope and its "topo.hops" histogram, plus a
/// switch -> shard and a switch -> host-shard map. The monolithic build is
/// the one-shard case: the caller's Simulator under the network scope.
/// Each trunk direction, like each host uplink and downlink, is one
/// net::Wire whose counters, spans and loss stream live on the sending
/// shard; it delivers through a mailbox when its ends sit on different
/// shards and through a local event otherwise.
class Network {
 public:
  Network(sim::Simulator& sim, const LeafSpineParams& params, sim::Scope scope = {});
  Network(sim::Simulator& sim, const FatTreeParams& params, sim::Scope scope = {});

  /// Sharded construction for conservative-parallel runs: every switch gets
  /// a private shard (Simulator + MetricRegistry) on `psim`, its hosts a
  /// second one, and each trunk direction and access link crosses shards
  /// through a mailbox whose latency is the link's propagation delay (the
  /// conservative lookahead). Drive the run with psim.run(); read results
  /// through merged_snapshot()/finalize_metrics(), which reproduce the
  /// monolithic build's metric names and bit-identical values — same final
  /// time, same snapshot bytes, same trunk drops, for lossy trunks too;
  /// only the executed-event count may differ from the monolithic build by
  /// a few coalesced idle-wakes (see ParallelSimulator::run).
  Network(sim::ParallelSimulator& psim, const LeafSpineParams& params);
  Network(sim::ParallelSimulator& psim, const FatTreeParams& params);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t host_count() const { return host_loc_.size(); }
  /// Host by global index; leaf_spine orders leaf-major (host g lives on
  /// leaf g / hosts_per_leaf), fat_tree pod-major.
  net::Host& host(std::size_t i);
  /// The address the plan assigned to host `i` (what senders put in
  /// ip_dst so the fabric routes to it).
  [[nodiscard]] std::uint32_t ip_of(std::size_t i) const { return host_ip_.at(i); }

  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  net::SwitchDevice& device(std::size_t i) { return *switches_.at(i).device; }
  net::Fabric& fabric(std::size_t i) { return *switches_.at(i).fabric; }
  [[nodiscard]] std::size_t trunk_count() const { return directions_.size() / 2; }
  /// Packets trunk `i` carried in direction `side` (0 = a->b, the upward
  /// direction ECMP spreads; 1 = b->a).
  [[nodiscard]] std::uint64_t trunk_packets(std::size_t i, int side) const {
    return direction(i, side).packets->value();
  }

  /// The Simulator that owns host/switch `i`'s events — the caller's in
  /// the monolithic build (workloads must schedule a host's sends on its
  /// own shard).
  [[nodiscard]] sim::Simulator& sim_of_host(std::size_t i) {
    return *shards_[host_shard_[host_loc_.at(i).first]].sim;
  }
  [[nodiscard]] sim::Simulator& sim_of_switch(std::size_t i) {
    return *shards_[switch_shard_.at(i)].sim;
  }

  /// Installs `tracker` on every host of every rack.
  void set_tracker(coflow::CoflowTracker* tracker);
  /// Host::reset() on every host (between back-to-back runs in one bench).
  void reset_hosts();

  /// The network-level registry (shared when an attached scope was passed,
  /// private otherwise): everything in the monolithic build, only the
  /// finalize_metrics() gauges in the sharded one — use merged_snapshot()
  /// for the full view.
  [[nodiscard]] sim::MetricRegistry& metrics() { return *scope_.registry(); }
  [[nodiscard]] const sim::Scope& scope() const { return scope_; }
  /// Hop count of every IPv4 packet delivered on shard 0 ("topo.hops") —
  /// the whole fabric in the monolithic build. reserve() it before a
  /// zero-allocation measuring window.
  [[nodiscard]] sim::Histogram& hops() { return *shards_.front().hops; }

  /// One deterministic snapshot covering the whole fabric: the network
  /// registry's snapshot with every shard registry folded in by
  /// Snapshot::merge in shard order — same metric names, and the same
  /// adcp-metrics-v1 bytes, on both builds.
  [[nodiscard]] sim::Snapshot merged_snapshot() const;

  /// Every shard's SpanBuffer in shard order, ready for the span
  /// exporters. Empty buffers are included (harmless to the exporters).
  [[nodiscard]] std::vector<const sim::SpanBuffer*> span_buffers() const;
  /// The head sampler hosts stamp trace ids with (disabled when the params
  /// left trace.sample_every == 0).
  [[nodiscard]] const sim::TraceSampler& trace_sampler() const { return sampler_; }
  [[nodiscard]] const sim::TraceConfig& trace_config() const { return trace_cfg_; }

  // Aggregate accounting for conservation checks (tx == rx + drops).
  [[nodiscard]] std::uint64_t total_host_tx_packets() const;
  [[nodiscard]] std::uint64_t total_host_rx_packets() const;
  [[nodiscard]] std::uint64_t total_host_link_drops() const;
  [[nodiscard]] std::uint64_t total_trunk_drops() const;

  /// Derives the gauge metrics from the counters accumulated so far:
  /// per-trunk "topo.trunk<i>.{ab,ba}.utilization", the network-wide
  /// "topo.trunk.max_utilization", and "topo.ecmp.imbalance" (worst
  /// max/mean uplink-packet ratio over all ECMP groups). Call once after
  /// the run, before snapshotting the registry.
  void finalize_metrics();

  /// What building this fabric cost. Byte and stage figures are deltas of
  /// mat::StateAccounting and the pipeline::Pipeline stage census over the
  /// constructor, so they cover exactly this network's switches:
  /// `bytes_reserved` is what the configs declared (every declared stage,
  /// built or not), `bytes_touched` what actually materialized (near zero
  /// until traffic runs); `stages_materialized` counts the pipeline stages
  /// the programs named, out of `stages_declared`.
  struct ConstructionStats {
    double build_ms = 0.0;
    std::uint64_t bytes_reserved = 0;
    std::uint64_t bytes_touched = 0;
    std::uint64_t stages_declared = 0;
    std::uint64_t stages_materialized = 0;
    std::uint64_t templates_built = 0;   ///< distinct (kind, ports) keys
    std::uint64_t templates_shared = 0;  ///< template-cache hits
  };
  [[nodiscard]] const ConstructionStats& construction() const { return construction_; }
  /// Writes the construction stats as gauges ("build_ms",
  /// "bytes_reserved", "bytes_touched", "stages_declared",
  /// "stages_materialized", "templates_built",
  /// "templates_shared") under `scope` — pass a scope of a *reporting*
  /// registry, not this network's own: build wall-clock is host-dependent
  /// and must stay out of the snapshots the determinism gates compare.
  void export_construction(sim::Scope scope) const;

  /// Flow fast-path counters of switch `i` (all-zero when the cache is off
  /// — the stats deliberately live outside the switch registries so the
  /// determinism gates can compare snapshots cache-on vs cache-off).
  [[nodiscard]] fastpath::FlowCacheStats fastpath_stats_of(std::size_t i) const;
  /// fastpath_stats_of summed over every switch of the fabric.
  [[nodiscard]] fastpath::FlowCacheStats fastpath_totals() const;
  /// Writes the totals as gauges ("fastpath.{hits,misses,invalidations,
  /// evictions,occupancy,hit_rate_pct}") under `scope` — pass a scope of a
  /// *reporting* registry, not this network's own (see export_construction
  /// for the same rule and reason).
  void export_fastpath(sim::Scope scope) const;

  // --- In-band telemetry (profile.telemetry.armed) ---------------------
  //
  // Arming telemetry in the TierProfile gives every switch a management
  // port and a TelemetryTap (INT stamping + postcards injected in-band),
  // puts a telem::Collector on the last host, and makes every other host
  // forward sampled trailer reports to it (DESIGN.md §14). Disarmed
  // fabrics build byte-identically to pre-telemetry ones.

  /// True when the fabric was built with telemetry armed.
  [[nodiscard]] bool telemetry_armed() const { return profile_.telemetry.armed; }
  /// The collector riding the last host (nullptr when disarmed).
  [[nodiscard]] telem::Collector* collector() { return collector_.get(); }
  /// Global index of the collector host (the last host when armed).
  [[nodiscard]] std::size_t collector_host() const { return host_loc_.size() - 1; }
  /// The address postcards and reports are sent to (0 when disarmed).
  [[nodiscard]] std::uint32_t collector_ip() const { return collector_ip_; }
  /// Switch `i`'s telemetry tap (nullptr when disarmed).
  [[nodiscard]] telem::TelemetryTap* telemetry_tap_of(std::size_t i) {
    return telem_taps_.empty() ? nullptr : telem_taps_.at(i).get();
  }
  /// Switch `i`'s heavy-hitter sketch (nullptr unless telemetry.sketch).
  [[nodiscard]] telem::HeavyHitterSketch* sketch_of(std::size_t i) {
    return sketches_.empty() ? nullptr : sketches_.at(i).get();
  }

  // --- In-band control channel (params.control_channel = true) ---------
  //
  // Hosted switches gain a management port reachable at a per-switch
  // control address; anything the switch routes out that port (i.e. every
  // packet addressed to ctrl_ip_of) is handed to the switch's control
  // sink on the switch's own shard — the hook ctrl::ControlPlane uses to
  // receive update batches that traveled the fabric as real packets.

  /// True when the fabric was built with the control channel.
  [[nodiscard]] bool control_channel() const { return control_channel_; }
  /// Control address of switch `i` (0 when it has none — non-edge tiers
  /// and fabrics built without the channel).
  [[nodiscard]] std::uint32_t ctrl_ip_of(std::size_t i) const { return ctrl_ip_.at(i); }
  /// Management port of switch `i` (packet::kInvalidPort when none).
  [[nodiscard]] packet::PortId mgmt_port_of(std::size_t i) const {
    return mgmt_port_.at(i);
  }
  /// Installs the consumer of switch `i`'s management-port traffic. The
  /// sink runs on the switch's shard at TX time; the packet is recycled
  /// (or destroyed) by the network afterwards, so sinks must copy what
  /// they keep. Install before the run starts.
  void set_control_sink(std::size_t i, std::function<void(const packet::Packet&)> sink);
  /// Switch `i`'s forwarding table (programs capture it by shared_ptr,
  /// exactly like the builder's own routing programs).
  [[nodiscard]] std::shared_ptr<ForwardingTable> fib_of(std::size_t i) {
    return switches_.at(i).fib;
  }
  /// The tier kind switch `i` was built as.
  [[nodiscard]] SwitchKind kind_of(std::size_t i) const { return kind_.at(i); }
  /// The "topo.sw<i>" scope on the registry of switch `i`'s shard — extra
  /// per-switch components (e.g. a versioned control store) register here
  /// so metric names match across builds byte-for-byte in merged_snapshot().
  [[nodiscard]] sim::Scope switch_scope(std::size_t i) {
    return shards_[switch_shard_.at(i)].topo.scope("sw" + std::to_string(i));
  }
  /// The "topo" scope on the registry of host `i`'s shard — for components
  /// that ride a host, like ctrl::ControlAgent.
  [[nodiscard]] sim::Scope host_shard_scope(std::size_t i) {
    return shards_[host_shard_[host_loc_.at(i).first]].topo;
  }

  /// The shared template for (kind, port_count), or nullptr if no switch
  /// of that shape exists. use_count() reflects only cache+caller refs —
  /// switches share the parse/deparse members, not the template object.
  [[nodiscard]] std::shared_ptr<const SwitchTemplate> template_of(
      SwitchKind kind, std::uint32_t port_count) const;

 private:
  /// One shard: the Simulator that owns its events, the "topo" scope its
  /// components register under, and its "topo.hops" histogram.
  struct Shard {
    sim::Simulator* sim = nullptr;
    sim::Scope topo;
    sim::Histogram* hops = nullptr;
  };

  struct SwitchSlot {
    std::unique_ptr<chassis::Chassis> device;
    std::unique_ptr<net::Fabric> fabric;
    std::shared_ptr<ForwardingTable> fib;
  };

  /// One direction of a trunk: its endpoints and "ab.*"/"ba.*" counters
  /// around the net::Wire that loses or delivers each packet. Counters,
  /// spans and the wire's "drops.link" live in the sending shard's
  /// "topo.trunk<i>" scope (on one shard both directions share that
  /// "drops.link"), the loss lottery draws a private per-direction stream,
  /// and drops recycle into the sending switch's pool.
  struct Direction {
    std::size_t from = 0;  // sending switch
    packet::PortId from_port = 0;
    chassis::Chassis* to = nullptr;  // receiving switch
    packet::PortId to_port = 0;
    std::uint64_t side = 0;  // 0 = ab (a->b), 1 = ba
    sim::Counter* packets = nullptr;
    sim::Counter* bytes = nullptr;
    std::unique_ptr<sim::Rng> loss;  // wire.rng's stream; lossy links only
    net::Wire wire;

    void forward(packet::Packet pkt);
  };

  /// The one construction sequence every public constructor delegates to;
  /// `sim` is the monolithic build's one shard (null when sharded).
  template <typename Params>
  Network(const Params& params, sim::Simulator* sim, sim::ParallelSimulator* psim,
          sim::Scope scope);
  /// Bracket the constructor body: snapshot the state-accounting counters
  /// and the wall clock, then fill construction_ with the deltas.
  void begin_build();
  void end_build();
  /// The shared template for this (kind, port_count), building and caching
  /// it on first request; counts cache hits as templates_shared.
  const SwitchTemplate& template_for(SwitchKind kind, std::uint32_t port_count);
  /// Appends a shard record for `sim` under `topo`, arming its registry's
  /// span ring when tracing; returns the shard index.
  std::size_t add_shard(sim::Simulator& sim, sim::Scope topo);
  /// The shard a new switch or host block lives on: the one shard of the
  /// monolithic build, a fresh shard with a fresh registry when sharded.
  std::size_t allocate_shard();
  void build(const LeafSpineParams& p);
  void build(const FatTreeParams& p);
  /// Creates switch i (device + fabric with `host_count` hosts) and loads
  /// the tier's routing program for `fib`.
  SwitchSlot& add_switch(SwitchKind kind, std::uint32_t port_count,
                         std::shared_ptr<ForwardingTable> fib, std::size_t host_count);
  /// Creates trunk i between port `a_port` of switch `a` and port `b_port`
  /// of switch `b`; `a` must be the lower tier (side 0 = upward traffic,
  /// the direction ECMP spreads). Returns the trunk index.
  std::size_t add_trunk(std::size_t a, packet::PortId a_port, std::size_t b,
                        packet::PortId b_port, net::Link link);
  /// Trunk `i` in direction `side`.
  [[nodiscard]] const Direction& direction(std::size_t i, int side) const {
    return directions_.at(2 * i + static_cast<std::size_t>(side));
  }
  /// After all switches and trunks exist: point every switch's hostless
  /// TX ports at its trunk directions, cut the access links of split
  /// hosts, and hook the hop-count probe on every host.
  void finish_wiring();
  /// Telemetry-armed port count for a switch with `data_ports` real ports:
  /// +1 management port, padded so rmt_pipelines_for keeps the data-port
  /// pipeline count (armed vs disarmed RMT switches stay comparable).
  [[nodiscard]] static std::uint32_t telem_ports(std::uint32_t data_ports);
  /// profile_.telemetry.armed: builds the taps, the collector, and the
  /// sink-host report forwarding (no-op when disarmed).
  void arm_telemetry();

  sim::ParallelSimulator* psim_ = nullptr;  // null: the monolithic build
  TierProfile profile_{};
  std::map<std::pair<int, std::uint32_t>, std::shared_ptr<const SwitchTemplate>> templates_;
  ConstructionStats construction_;
  double build_t0_ms_ = 0.0;           // begin_build() wall-clock origin
  std::uint64_t build_reserved0_ = 0;  // StateAccounting at begin_build()
  std::uint64_t build_touched0_ = 0;
  std::uint64_t build_stages_declared0_ = 0;  // stage census at begin_build()
  std::uint64_t build_stages_materialized0_ = 0;
  std::uint64_t loss_seed_ = 0;  // seeds the per-direction trunk loss streams
  sim::TraceConfig trace_cfg_{};
  sim::TraceSampler sampler_;  // stable address: hosts keep a pointer
  // Declared before scope_, which may register through it.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<sim::MetricRegistry>> shard_regs_;  // sharded build
  std::vector<SwitchSlot> switches_;
  std::deque<Direction> directions_;  // trunk i's side s at 2i + s; stable addresses
  std::vector<std::size_t> switch_shard_;  // switch index -> shard
  std::vector<std::size_t> host_shard_;    // switch index -> its hosts' shard
  bool control_channel_ = false;
  std::vector<SwitchKind> kind_;             // switch index -> tier kind
  std::vector<std::uint32_t> ctrl_ip_;       // switch index -> control addr (0 = none)
  std::vector<packet::PortId> mgmt_port_;    // switch index -> mgmt port
  /// Stable slots the TX closures point into; set_control_sink fills them.
  std::vector<std::function<void(const packet::Packet&)>> ctrl_sinks_;
  /// Telemetry (armed profiles only; all empty/null when disarmed).
  std::vector<std::unique_ptr<telem::HeavyHitterSketch>> sketches_;  // per switch
  std::vector<std::unique_ptr<telem::TelemetryTap>> telem_taps_;     // per switch
  std::unique_ptr<telem::Collector> collector_;
  std::uint32_t collector_ip_ = 0;
  std::vector<std::uint32_t> host_ip_;  // global host index -> address
  std::vector<std::pair<std::uint32_t, std::uint32_t>> host_loc_;  // -> (switch, local)
  std::vector<std::vector<std::size_t>> ecmp_groups_;  // uplink fan-outs (trunk indices)
};

}  // namespace adcp::topo

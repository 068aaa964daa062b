#include "topo/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

#include "chassis/chassis.hpp"
#include "core/adcp_switch.hpp"
#include "mat/state_accounting.hpp"
#include "packet/headers.hpp"
#include "pipeline/pipeline.hpp"
#include "rmt/rmt_switch.hpp"
#include "rtc/rtc_switch.hpp"
#include "topo/programs.hpp"

namespace adcp::topo {

namespace {

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Instantiates one switch from its tier template. A non-null `sketch`
/// arms the PRECISION heavy-hitter program alongside routing
/// (telemetry.sketch).
std::unique_ptr<chassis::Chassis> make_switch(sim::Simulator& sim, const SwitchTemplate& tmpl,
                                              std::shared_ptr<const ForwardingTable> fib,
                                              sim::Scope scope,
                                              telem::HeavyHitterSketch* sketch) {
  switch (tmpl.kind) {
    case SwitchKind::kRmt: {
      auto sw = std::make_unique<rmt::RmtSwitch>(sim, tmpl.rmt, std::move(scope));
      sw->load_program(rmt_routing_program(tmpl.rmt, std::move(fib), sketch));
      return sw;
    }
    case SwitchKind::kAdcp: {
      auto sw = std::make_unique<core::AdcpSwitch>(sim, tmpl.adcp, std::move(scope));
      sw->load_program(adcp_routing_program(tmpl.adcp, std::move(fib), sketch));
      return sw;
    }
    case SwitchKind::kRtc: {
      auto sw = std::make_unique<rtc::RtcSwitch>(sim, tmpl.rtc, std::move(scope));
      sw->load_program(rtc_routing_program(tmpl.rtc, std::move(fib), sketch));
      return sw;
    }
  }
  return nullptr;
}

}  // namespace

Network::Network(sim::Simulator& sim, const LeafSpineParams& params, sim::Scope scope)
    : Network(params, &sim, nullptr, std::move(scope)) {}

Network::Network(sim::Simulator& sim, const FatTreeParams& params, sim::Scope scope)
    : Network(params, &sim, nullptr, std::move(scope)) {}

Network::Network(sim::ParallelSimulator& psim, const LeafSpineParams& params)
    : Network(params, nullptr, &psim, {}) {}

Network::Network(sim::ParallelSimulator& psim, const FatTreeParams& params)
    : Network(params, nullptr, &psim, {}) {}

template <typename Params>
Network::Network(const Params& params, sim::Simulator* sim, sim::ParallelSimulator* psim,
                 sim::Scope scope)
    : psim_(psim),
      profile_(params.profile),
      loss_seed_(params.loss_seed ^ 0x7210'6b5eULL),
      trace_cfg_(params.trace),
      sampler_(trace_cfg_),
      control_channel_(params.control_channel) {
  begin_build();
  scope_ = sim::resolve_scope(std::move(scope), own_metrics_, "topo");
  // The monolithic build is the one-shard case: the caller's simulator
  // under the network scope. The sharded build's network registry carries
  // only the finalize_metrics() gauges; its shards are allocated per switch.
  if (sim != nullptr) add_shard(*sim, scope_);
  build(params);
  finish_wiring();
  end_build();
}

void Network::begin_build() {
  build_t0_ms_ = wall_ms();
  build_reserved0_ = mat::StateAccounting::reserved_bytes();
  build_touched0_ = mat::StateAccounting::touched_bytes();
  build_stages_declared0_ = pipeline::Pipeline::stages_declared_total();
  build_stages_materialized0_ = pipeline::Pipeline::stages_materialized_total();
}

void Network::end_build() {
  construction_.build_ms = wall_ms() - build_t0_ms_;
  construction_.bytes_reserved = mat::StateAccounting::reserved_bytes() - build_reserved0_;
  construction_.bytes_touched = mat::StateAccounting::touched_bytes() - build_touched0_;
  construction_.stages_declared =
      pipeline::Pipeline::stages_declared_total() - build_stages_declared0_;
  construction_.stages_materialized =
      pipeline::Pipeline::stages_materialized_total() - build_stages_materialized0_;
}

const SwitchTemplate& Network::template_for(SwitchKind kind, std::uint32_t port_count) {
  const auto key = std::make_pair(static_cast<int>(kind), port_count);
  const auto it = templates_.find(key);
  if (it != templates_.end()) {
    ++construction_.templates_shared;
    return *it->second;
  }
  ++construction_.templates_built;
  auto tmpl = std::make_shared<const SwitchTemplate>(
      SwitchTemplate::build(profile_, kind, port_count));
  return *templates_.emplace(key, std::move(tmpl)).first->second;
}

std::shared_ptr<const SwitchTemplate> Network::template_of(SwitchKind kind,
                                                           std::uint32_t port_count) const {
  const auto it = templates_.find(std::make_pair(static_cast<int>(kind), port_count));
  return it == templates_.end() ? nullptr : it->second;
}

void Network::export_construction(sim::Scope scope) const {
  scope.gauge("build_ms").set(construction_.build_ms);
  scope.gauge("bytes_reserved").set(static_cast<double>(construction_.bytes_reserved));
  scope.gauge("bytes_touched").set(static_cast<double>(construction_.bytes_touched));
  scope.gauge("stages_declared").set(static_cast<double>(construction_.stages_declared));
  scope.gauge("stages_materialized")
      .set(static_cast<double>(construction_.stages_materialized));
  scope.gauge("templates_built").set(static_cast<double>(construction_.templates_built));
  scope.gauge("templates_shared").set(static_cast<double>(construction_.templates_shared));
}

fastpath::FlowCacheStats Network::fastpath_stats_of(std::size_t i) const {
  return switches_.at(i).device->fastpath_stats();
}

fastpath::FlowCacheStats Network::fastpath_totals() const {
  fastpath::FlowCacheStats total;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    const fastpath::FlowCacheStats s = fastpath_stats_of(i);
    total.hits += s.hits;
    total.misses += s.misses;
    total.invalidations += s.invalidations;
    total.evictions += s.evictions;
    total.occupancy += s.occupancy;
  }
  return total;
}

void Network::export_fastpath(sim::Scope scope) const {
  const fastpath::FlowCacheStats t = fastpath_totals();
  const std::uint64_t probes = t.hits + t.misses;
  scope.gauge("fastpath.hits").set(static_cast<double>(t.hits));
  scope.gauge("fastpath.misses").set(static_cast<double>(t.misses));
  scope.gauge("fastpath.invalidations").set(static_cast<double>(t.invalidations));
  scope.gauge("fastpath.evictions").set(static_cast<double>(t.evictions));
  scope.gauge("fastpath.occupancy").set(static_cast<double>(t.occupancy));
  scope.gauge("fastpath.hit_rate_pct")
      .set(probes == 0 ? 0.0 : 100.0 * static_cast<double>(t.hits) /
                                   static_cast<double>(probes));
}

std::size_t Network::add_shard(sim::Simulator& sim, sim::Scope topo) {
  // Arm the flight recorder before any component interns a recorder so
  // everything built on the shard records from the first packet.
  if (trace_cfg_.enabled()) topo.registry()->spans().enable(trace_cfg_.ring_capacity);
  // Every shard registers the shared "topo.hops" name; merged_snapshot()
  // folds the per-shard sample sets back into one histogram.
  sim::Histogram& hops = topo.histogram("hops");
  shards_.push_back({&sim, std::move(topo), &hops});
  return shards_.size() - 1;
}

std::size_t Network::allocate_shard() {
  if (psim_ == nullptr) return 0;
  sim::Simulator& shard = psim_->add_shard();
  shard_regs_.push_back(std::make_unique<sim::MetricRegistry>());
  return add_shard(shard, shard_regs_.back()->scope("topo"));
}

Network::SwitchSlot& Network::add_switch(SwitchKind kind, std::uint32_t port_count,
                                         std::shared_ptr<ForwardingTable> fib,
                                         std::size_t host_count) {
  const std::size_t i = switches_.size();
  switch_shard_.push_back(allocate_shard());
  // A sharded build gives hosts a shard of their own, with the access
  // link's propagation as the cut's lookahead: their events (NIC pacing,
  // rx accounting) are the bulk of the work on incast-heavy scenarios, and
  // splitting them off lets the partitioner balance workers instead of
  // pinning a whole rack to one thread.
  host_shard_.push_back(host_count > 0 ? allocate_shard() : switch_shard_.back());
  const Shard& sw_shard = shards_[switch_shard_.back()];
  const Shard& host_shard = shards_[host_shard_.back()];
  kind_.push_back(kind);
  ctrl_ip_.push_back(0);
  mgmt_port_.push_back(packet::kInvalidPort);
  const std::string name = "sw" + std::to_string(i);
  // The heavy-hitter sketch is per switch (one stage memory) with a
  // per-switch lottery stream; the routing program shares the object.
  telem::HeavyHitterSketch* sketch = nullptr;
  if (profile_.telemetry.armed && profile_.telemetry.sketch) {
    telem::SketchConfig sc;
    sc.ways = profile_.telemetry.sketch_ways;
    sc.slots = profile_.telemetry.sketch_slots;
    sc.seed = profile_.telemetry.seed ^ (0x5ce7'c400ULL + i);
    sketches_.push_back(std::make_unique<telem::HeavyHitterSketch>(sc));
    sketch = sketches_.back().get();
  } else if (profile_.telemetry.armed) {
    sketches_.push_back(nullptr);  // keep switch-index alignment
  }
  SwitchSlot slot;
  const SwitchTemplate& tmpl = template_for(kind, port_count);
  slot.device = make_switch(*sw_shard.sim, tmpl, fib, sw_shard.topo.scope(name), sketch);
  // The fabric (hosts + pool) lives on the host shard; its TX dispatch
  // closure still runs on the switch shard but only routes — per-host
  // state is reached through the access-link wires that finish_wiring()
  // cuts.
  // Access links are lossless, so the fabric's loss stream never draws.
  slot.fabric = std::make_unique<net::Fabric>(*host_shard.sim, *slot.device, net::Link{},
                                              /*seed=*/0, host_shard.topo.scope(name),
                                              host_count);
  slot.fib = std::move(fib);
  switches_.push_back(std::move(slot));
  return switches_.back();
}

std::size_t Network::add_trunk(std::size_t a, packet::PortId a_port, std::size_t b,
                              packet::PortId b_port, net::Link link) {
  const std::size_t i = trunk_count();
  const std::string name = "trunk" + std::to_string(i);
  const auto add_direction = [&](std::uint64_t side, std::size_t from, packet::PortId from_port,
                                 std::size_t to, packet::PortId to_port) {
    const std::size_t src = switch_shard_[from];
    const std::size_t dst = switch_shard_[to];
    Direction& d = directions_.emplace_back();
    d.from = from;
    d.from_port = from_port;
    d.to = switches_[to].device.get();
    d.to_port = to_port;
    d.side = side;
    sim::Scope scope = shards_[src].topo.scope(name);
    d.packets = &scope.counter(side == 0 ? "ab.packets" : "ba.packets");
    d.bytes = &scope.counter(side == 0 ? "ab.bytes" : "ba.bytes");
    if (link.loss_rate > 0.0) {
      d.loss = std::make_unique<sim::Rng>(sim::mix64(loss_seed_ ^ (2 * i + side)));
    }
    d.wire = {.link = link,
              .sim = shards_[src].sim,
              .mailbox = src == dst ? nullptr : &psim_->add_mailbox(src, dst, link.propagation),
              .rng = d.loss.get(),
              .drops = &scope.counter("drops.link"),
              .spans = scope.span_recorder(),
              .drop_pool = &switches_[from].device->pool()};
  };
  // Mailbox ids follow trunk creation order, a-side first, so the
  // barrier's (time, mailbox, seq) injection order is (time, trunk,
  // direction, fifo) — fixed by the topology, not by thread timing.
  add_direction(0, a, a_port, b, b_port);
  add_direction(1, b, b_port, a, a_port);
  return i;
}

void Network::Direction::forward(packet::Packet pkt) {
  packets->add();
  bytes->add(pkt.size());
  const sim::Time now = wire.sim->now();
  if (wire.lost(pkt, now)) return;
  const sim::Time arrival = now + wire.link.propagation;
  wire.spans.span(sim::SpanKind::kTrunk, pkt.meta.trace_id, now, arrival, side, pkt.size());
  wire.deliver(arrival, [d = this, pkt = std::move(pkt)]() mutable {
    d->to->inject(d->to_port, std::move(pkt));
  });
}

void Network::build(const LeafSpineParams& p) {
  assert(p.leaves > 0 && p.spines > 0 && p.hosts_per_leaf > 0);
  assert(p.leaves <= 256 && p.hosts_per_leaf <= 256);
  assert(!(p.control_channel && p.hosts_per_leaf > 255) &&
         "host address 255 is the control address");
  const std::uint32_t L = p.leaves;
  const std::uint32_t S = p.spines;
  const std::uint32_t H = p.hosts_per_leaf;
  // Control channel: one extra management port past the uplinks. The
  // spines' /24 leaf prefixes already cover the control address, so only
  // the target leaf needs the exact route. Telemetry arms a management
  // port on EVERY switch (postcard injection; shared with control on the
  // leaves), padded by telem_ports so RMT keeps its pipeline count.
  const bool armed = profile_.telemetry.armed;
  const std::uint32_t mgmt = p.control_channel ? 1 : 0;

  // Leaves: ports [0, H) hosts, [H, H+S) spine uplinks.
  const std::uint32_t leaf_ports = armed ? telem_ports(H + S) : H + S + mgmt;
  for (std::uint32_t l = 0; l < L; ++l) {
    auto fib = std::make_shared<ForwardingTable>(p.ecmp_seed);
    for (std::uint32_t h = 0; h < H; ++h) fib->add_exact(make_ip(0, l, h), h);
    if (p.control_channel) fib->add_exact(make_ip(0, l, 255), H + S);
    EcmpGroup up;
    for (std::uint32_t s = 0; s < S; ++s) up.ports.push_back(H + s);
    fib->add_prefix(kAddressBase, 8, std::move(up));
    add_switch(p.kind, leaf_ports, std::move(fib), H);
    if (p.control_channel) ctrl_ip_.back() = make_ip(0, l, 255);
    if (p.control_channel || armed) mgmt_port_.back() = H + S;
    for (std::uint32_t h = 0; h < H; ++h) {
      host_ip_.push_back(make_ip(0, l, h));
      host_loc_.emplace_back(l, h);
    }
  }

  // Spines: port l faces leaf l.
  const std::uint32_t spine_ports = armed ? telem_ports(L) : L;
  for (std::uint32_t s = 0; s < S; ++s) {
    auto fib = std::make_shared<ForwardingTable>(p.ecmp_seed);
    for (std::uint32_t l = 0; l < L; ++l) fib->add_prefix(make_ip(0, l, 0), 24, {{l}});
    add_switch(p.kind, spine_ports, std::move(fib), 0);
    if (armed) mgmt_port_.back() = L;
  }

  // Full bipartite leaf<->spine wiring; trunk l*S+s joins leaf l, spine s.
  ecmp_groups_.resize(L);
  for (std::uint32_t l = 0; l < L; ++l) {
    for (std::uint32_t s = 0; s < S; ++s) {
      ecmp_groups_[l].push_back(add_trunk(l, H + s, L + s, l, p.trunk_link));
    }
  }
}

void Network::build(const FatTreeParams& p) {
  assert(p.k >= 2 && p.k % 2 == 0 && p.k <= 16);
  const std::uint32_t k = p.k;
  const std::uint32_t half = k / 2;
  const std::uint32_t edges = k * half;   // also the aggregation count
  const auto edge_index = [half](std::uint32_t pod, std::uint32_t e) { return pod * half + e; };
  const auto agg_index = [edges, half](std::uint32_t pod, std::uint32_t a) {
    return edges + pod * half + a;
  };
  const auto core_index = [edges, half](std::uint32_t i, std::uint32_t j) {
    return 2 * edges + i * half + j;
  };
  // Control channel: management port k on every edge; the aggregation /24
  // and core /16 prefixes already route the control address down.
  // Telemetry arms a management port on every tier (see build_leaf_spine).
  const bool armed = profile_.telemetry.armed;
  const std::uint32_t mgmt = p.control_channel ? 1 : 0;
  const std::uint32_t tier_ports = armed ? telem_ports(k) : k;
  const std::uint32_t edge_ports = armed ? tier_ports : k + mgmt;

  // Edge switches: ports [0, half) hosts, [half, k) aggregation uplinks.
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      auto fib = std::make_shared<ForwardingTable>(p.ecmp_seed);
      for (std::uint32_t h = 0; h < half; ++h) fib->add_exact(make_ip(pod, e, h), h);
      if (p.control_channel) fib->add_exact(make_ip(pod, e, 255), k);
      EcmpGroup up;
      for (std::uint32_t a = 0; a < half; ++a) up.ports.push_back(half + a);
      fib->add_prefix(kAddressBase, 8, std::move(up));
      add_switch(p.kind, edge_ports, std::move(fib), half);
      if (p.control_channel) ctrl_ip_.back() = make_ip(pod, e, 255);
      if (p.control_channel || armed) mgmt_port_.back() = k;
      for (std::uint32_t h = 0; h < half; ++h) {
        host_ip_.push_back(make_ip(pod, e, h));
        host_loc_.emplace_back(edge_index(pod, e), h);
      }
    }
  }

  // Aggregation switches: ports [0, half) to the pod's edges, [half, k) up.
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t a = 0; a < half; ++a) {
      auto fib = std::make_shared<ForwardingTable>(p.ecmp_seed);
      for (std::uint32_t e = 0; e < half; ++e) fib->add_prefix(make_ip(pod, e, 0), 24, {{e}});
      EcmpGroup up;
      for (std::uint32_t j = 0; j < half; ++j) up.ports.push_back(half + j);
      fib->add_prefix(kAddressBase, 8, std::move(up));
      add_switch(p.kind, tier_ports, std::move(fib), 0);
      if (armed) mgmt_port_.back() = k;
    }
  }

  // Core switches: port `pod` faces pod `pod` (via agg position i).
  for (std::uint32_t i = 0; i < half; ++i) {
    for (std::uint32_t j = 0; j < half; ++j) {
      auto fib = std::make_shared<ForwardingTable>(p.ecmp_seed);
      for (std::uint32_t pod = 0; pod < k; ++pod) {
        fib->add_prefix(make_ip(pod, 0, 0), 16, {{pod}});
      }
      add_switch(p.kind, tier_ports, std::move(fib), 0);
      if (armed) mgmt_port_.back() = k;
    }
  }

  // Edge <-> aggregation inside each pod; aggregation <-> core across pods.
  ecmp_groups_.resize(edges + edges);
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t a = 0; a < half; ++a) {
        ecmp_groups_[edge_index(pod, e)].push_back(
            add_trunk(edge_index(pod, e), half + a, agg_index(pod, a), e, p.trunk_link));
      }
    }
    for (std::uint32_t i = 0; i < half; ++i) {
      for (std::uint32_t j = 0; j < half; ++j) {
        // agg_index already lands in [edges, 2*edges) — the agg group slab.
        ecmp_groups_[agg_index(pod, i)].push_back(
            add_trunk(agg_index(pod, i), half + j, core_index(i, j), pod, p.trunk_link));
      }
    }
  }
}

void Network::finish_wiring() {
  if (trace_cfg_.enabled()) {
    for (SwitchSlot& slot : switches_) slot.fabric->set_trace_sampler(&sampler_);
  }
  // The control sink slots must be at their final addresses before the TX
  // closures capture pointers into them (set_control_sink fills the slots
  // later, after ctrl:: attaches).
  ctrl_sinks_.resize(switches_.size());
  // Each switch's port -> outgoing trunk direction map, bucketed in one pass.
  std::vector<std::vector<Direction*>> tx_dirs(switches_.size());
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    tx_dirs[i].assign(switches_[i].device->port_count(), nullptr);
  }
  for (Direction& d : directions_) tx_dirs[d.from][d.from_port] = &d;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    SwitchSlot& slot = switches_[i];
    // Management-port TX runs on the switch's shard, so a sink stages
    // control updates into switch-owned state without crossing the cut.
    // The packet is dropped on the floor after the sink: with split hosts
    // the fabric pool lives on the host shard, and pools are an allocation
    // optimization, not an accounting surface. Every other hostless port
    // transmits onto its trunk direction.
    const packet::PortId mgmt = mgmt_port_[i];
    std::function<void(const packet::Packet&)>* sink =
        mgmt != packet::kInvalidPort ? &ctrl_sinks_[i] : nullptr;
    slot.fabric->set_default_tx([map = std::move(tx_dirs[i]), mgmt, sink](
                                    packet::PortId port, packet::Packet pkt) {
      if (port == mgmt && sink != nullptr) {
        if (*sink) (*sink)(pkt);
        return;
      }
      if (port < map.size() && map[port] != nullptr) map[port]->forward(std::move(pkt));
    });
  }

  // Split hosts: cut their access links. Every switch whose hosts live on
  // another shard gets one mailbox pair (up: host shard -> switch shard,
  // down: the reverse) whose conservative latency is the access link's
  // propagation delay; its hosts' wires share them.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (host_shard_[i] == switch_shard_[i]) continue;
    std::vector<net::Host>& hosts = switches_[i].fabric->hosts();
    const sim::Time propagation = hosts.front().link().propagation;
    sim::Mailbox& up = psim_->add_mailbox(host_shard_[i], switch_shard_[i], propagation);
    sim::Mailbox& down = psim_->add_mailbox(switch_shard_[i], host_shard_[i], propagation);
    for (net::Host& h : hosts) h.cut(up, *shards_[switch_shard_[i]].sim, down);
  }

  // Hop-count probe: the routing programs decrement the wire TTL once per
  // switch, so a delivered packet's hop count is kIncInitialTtl - ttl.
  // Each host records into its own shard's histogram.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sim::Histogram* hist = shards_[host_shard_[i]].hops;
    for (net::Host& h : switches_[i].fabric->hosts()) {
      h.add_rx_callback([hist](net::Host&, const packet::Packet& pkt) {
        if (pkt.size() >= packet::kEthernetBytes + packet::kIpv4Bytes &&
            pkt.data.read(12, 2) == packet::kEtherTypeIpv4) {
          const std::uint64_t ttl = pkt.data.read(packet::kEthernetBytes + 8, 1);
          if (ttl <= packet::kIncInitialTtl) {
            hist->record(static_cast<double>(packet::kIncInitialTtl - ttl));
          }
        }
      });
    }
  }

  // Static cost model for the LPT shard packer: a switch shard's weight
  // grows with its trunk degree (spines and cores relay every flow that
  // crosses them), a host shard's with its host count (NIC pacing + rx
  // accounting dominate incast scenarios). Benches refine this with
  // measured shard_busy_ns() between runs; the packing affects wall-clock
  // only, never results.
  if (psim_ != nullptr) {
    std::vector<std::size_t> degree(switches_.size(), 0);
    for (const Direction& d : directions_) ++degree[d.from];
    std::vector<double> w(shards_.size(), 1.0);
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      w[switch_shard_[i]] = 1.0 + 0.25 * static_cast<double>(degree[i]);
      if (host_shard_[i] != switch_shard_[i]) {
        w[host_shard_[i]] =
            0.5 + 0.25 * static_cast<double>(switches_[i].fabric->size());
      }
    }
    psim_->set_shard_weights(std::move(w));
  }

  arm_telemetry();
}

std::uint32_t Network::telem_ports(std::uint32_t data_ports) {
  std::uint32_t total = data_ports + 1;  // + the management port
  const std::uint32_t pipes = TierProfile::rmt_pipelines_for(data_ports);
  while (TierProfile::rmt_pipelines_for(total) != pipes) ++total;
  return total;
}

void Network::arm_telemetry() {
  const telem::TelemetryProfile& tp = profile_.telemetry;
  if (!tp.armed || host_loc_.empty()) return;
  const std::size_t collector = host_loc_.size() - 1;
  collector_ip_ = host_ip_[collector];

  // One tap per switch, on the switch's shard; postcards are injected at
  // the management port and travel the fabric like any other packet. The
  // source address only feeds the ECMP hash (nothing replies to a tap).
  telem_taps_.reserve(switches_.size());
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    telem::TapConfig tc;
    tc.switch_id = static_cast<std::uint16_t>(i);
    tc.profile = tp;
    tc.collector_ip = collector_ip_;
    tc.source_ip = 0xac10'0000u + static_cast<std::uint32_t>(i);
    net::SwitchDevice* dev = switches_[i].device.get();
    const packet::PortId mgmt = mgmt_port_[i];
    tc.emit = [dev, mgmt](packet::Packet pkt) { dev->inject(mgmt, std::move(pkt)); };
    telem_taps_.push_back(std::make_unique<telem::TelemetryTap>(
        std::move(tc), switch_scope(i).scope("telem")));
    dev->set_telemetry_tap(telem_taps_.back().get());
  }

  // The collector rides the last host ("topo.collector" on its shard).
  collector_ = std::make_unique<telem::Collector>(
      host(collector), host_shard_scope(collector).scope("collector"));

  // Every other host re-packs delivered INT trailers into reports for a
  // deterministically sampled subset of flows and forwards them in-band.
  if (!tp.reports_enabled()) return;
  for (std::size_t g = 0; g < collector; ++g) {
    auto seq = std::make_shared<std::uint32_t>(0);
    const std::uint32_t src_ip = host_ip_[g];
    const std::uint32_t dst_ip = collector_ip_;
    const std::uint32_t sample = tp.report_sample_every;
    const std::uint64_t seed = tp.seed;
    const std::uint16_t udp_src = static_cast<std::uint16_t>(51'000 + (g % 1000));
    host(g).add_rx_callback([seq, src_ip, dst_ip, sample, seed, udp_src](
                                net::Host& h, const packet::Packet& pkt) {
      std::vector<telem::IntRecord> hops;
      if (telem::int_decode(pkt, hops) == 0) return;
      const std::uint64_t flow = pkt.meta.flow_id;
      if (sample > 1 && sim::mix64(flow ^ seed) % sample != 0) return;
      packet::IncPacketSpec spec;
      spec.ip_src = src_ip;
      spec.ip_dst = dst_ip;
      spec.udp_src = udp_src;
      spec.inc = telem::make_report(static_cast<std::uint32_t>(flow),
                                    static_cast<std::uint16_t>(pkt.meta.coflow_id),
                                    (*seq)++, hops);
      h.send_inc(spec);
    });
  }
}

net::Host& Network::host(std::size_t i) {
  const auto [sw, local] = host_loc_.at(i);
  return switches_[sw].fabric->host(local);
}

void Network::set_control_sink(std::size_t i,
                               std::function<void(const packet::Packet&)> sink) {
  assert(mgmt_port_.at(i) != packet::kInvalidPort &&
         "switch has no management port (control_channel off or non-edge tier)");
  ctrl_sinks_.at(i) = std::move(sink);
}

std::vector<const sim::SpanBuffer*> Network::span_buffers() const {
  std::vector<const sim::SpanBuffer*> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) out.push_back(&shard.topo.registry()->spans());
  return out;
}

sim::Snapshot Network::merged_snapshot() const {
  sim::Snapshot snap = scope_.registry()->snapshot();
  for (const auto& reg : shard_regs_) snap.merge(reg->snapshot());
  return snap;
}

void Network::set_tracker(coflow::CoflowTracker* tracker) {
  for (SwitchSlot& slot : switches_) slot.fabric->set_tracker(tracker);
}

void Network::reset_hosts() {
  for (SwitchSlot& slot : switches_) {
    for (net::Host& h : slot.fabric->hosts()) h.reset();
  }
}

std::uint64_t Network::total_host_tx_packets() const {
  std::uint64_t total = 0;
  for (const SwitchSlot& slot : switches_) {
    for (net::Host& h : slot.fabric->hosts()) total += h.tx_packets();
  }
  return total;
}

std::uint64_t Network::total_host_rx_packets() const {
  std::uint64_t total = 0;
  for (const SwitchSlot& slot : switches_) {
    for (net::Host& h : slot.fabric->hosts()) total += h.rx_packets();
  }
  return total;
}

std::uint64_t Network::total_host_link_drops() const {
  std::uint64_t total = 0;
  for (const SwitchSlot& slot : switches_) {
    for (net::Host& h : slot.fabric->hosts()) total += h.link_drops();
  }
  return total;
}

std::uint64_t Network::total_trunk_drops() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < trunk_count(); ++i) {
    const net::Wire& ab = direction(i, 0).wire;
    const net::Wire& ba = direction(i, 1).wire;
    // On one shard both directions count into the same "drops.link".
    total += ab.drops->value() + (ba.drops != ab.drops ? ba.drops->value() : 0);
  }
  return total;
}

void Network::finalize_metrics() {
  sim::Time elapsed = 0;  // the latest shard clock
  for (const Shard& shard : shards_) elapsed = std::max(elapsed, shard.sim->now());
  const auto utilization = [elapsed](const Direction& d) {
    if (elapsed == 0 || d.wire.link.gbps <= 0.0) return 0.0;
    const double bits = static_cast<double>(d.bytes->value()) * 8.0;
    return bits * 1000.0 / (d.wire.link.gbps * static_cast<double>(elapsed));
  };
  double max_util = 0.0;
  for (std::size_t i = 0; i < trunk_count(); ++i) {
    const double ab = utilization(direction(i, 0));
    const double ba = utilization(direction(i, 1));
    sim::Scope ts = scope_.scope("trunk" + std::to_string(i));
    ts.gauge("ab.utilization").set(ab);
    ts.gauge("ba.utilization").set(ba);
    max_util = std::max({max_util, ab, ba});
  }
  scope_.gauge("trunk.max_utilization").set(max_util);

  // Worst max/mean ratio of upward packets over any ECMP fan-out: 1.0 is a
  // perfect spread, group-size is total polarization onto one uplink.
  double worst = 0.0;
  for (const auto& group : ecmp_groups_) {
    if (group.empty()) continue;
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (const std::size_t t : group) {
      total += trunk_packets(t, 0);
      peak = std::max(peak, trunk_packets(t, 0));
    }
    if (total == 0) continue;
    const double mean = static_cast<double>(total) / static_cast<double>(group.size());
    worst = std::max(worst, static_cast<double>(peak) / mean);
  }
  scope_.gauge("ecmp.imbalance").set(worst);
}

}  // namespace adcp::topo

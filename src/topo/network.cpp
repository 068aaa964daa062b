#include "topo/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

#include "chassis/chassis.hpp"
#include "core/adcp_switch.hpp"
#include "mat/state_accounting.hpp"
#include "packet/headers.hpp"
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

/// Instantiates one switch from its tier template. `share` installs the
/// template's parse graph / deparser by shared_ptr (the slim profile);
/// otherwise the routing program's own copies are used (legacy full
/// profile — every switch owns its graphs). A non-null `sketch` arms the
/// PRECISION heavy-hitter program alongside routing (telemetry.sketch).
std::unique_ptr<net::SwitchDevice> make_switch(sim::Simulator& sim,
                                               const SwitchTemplate& tmpl, bool share,
                                               std::shared_ptr<const ForwardingTable> fib,
                                               sim::Scope scope,
                                               telem::HeavyHitterSketch* sketch) {
  switch (tmpl.kind) {
    case SwitchKind::kRmt: {
      auto sw = std::make_unique<rmt::RmtSwitch>(sim, tmpl.rmt, std::move(scope));
      rmt::RmtProgram prog = rmt_routing_program(tmpl.rmt, std::move(fib), sketch);
      if (share) {
        prog.shared_parse = tmpl.parse;
        prog.shared_deparse = tmpl.deparse;
      }
      sw->load_program(std::move(prog));
      return sw;
    }
    case SwitchKind::kAdcp: {
      auto sw = std::make_unique<core::AdcpSwitch>(sim, tmpl.adcp, std::move(scope));
      core::AdcpProgram prog = adcp_routing_program(tmpl.adcp, std::move(fib), sketch);
      if (share) {
        prog.shared_parse = tmpl.parse;
        prog.shared_deparse = tmpl.deparse;
      }
      sw->load_program(std::move(prog));
      return sw;
    }
    case SwitchKind::kRtc: {
      auto sw = std::make_unique<rtc::RtcSwitch>(sim, tmpl.rtc, std::move(scope));
      rtc::RtcProgram prog = rtc_routing_program(tmpl.rtc, std::move(fib), sketch);
      if (share) {
        prog.shared_parse = tmpl.parse;
        prog.shared_deparse = tmpl.deparse;
      }
      sw->load_program(std::move(prog));
      return sw;
    }
  }
  return nullptr;
}

}  // namespace

Network::Network(sim::Simulator& sim, const LeafSpineParams& params, sim::Scope scope)
    : profile_(params.profile) {
  begin_build();
  trace_cfg_ = params.trace;
  sampler_ = sim::TraceSampler(trace_cfg_);
  init(sim, std::move(scope));
  trunk_rng_ = sim::Rng(params.loss_seed ^ 0x7210'6b5eULL);
  build_leaf_spine(params);
  finish_wiring();
  end_build();
}

Network::Network(sim::Simulator& sim, const FatTreeParams& params, sim::Scope scope)
    : profile_(params.profile) {
  begin_build();
  trace_cfg_ = params.trace;
  sampler_ = sim::TraceSampler(trace_cfg_);
  init(sim, std::move(scope));
  trunk_rng_ = sim::Rng(params.loss_seed ^ 0x7210'6b5eULL);
  build_fat_tree(params);
  finish_wiring();
  end_build();
}

Network::Network(sim::ParallelSimulator& psim, const LeafSpineParams& params)
    : profile_(params.profile) {
  begin_build();
  trace_cfg_ = params.trace;
  sampler_ = sim::TraceSampler(trace_cfg_);
  init_parallel(psim);
  split_hosts_ =
      params.host_shards_per_switch > 0 && params.host_link.propagation > 0;
  loss_seed_base_ = params.loss_seed ^ 0x7210'6b5eULL;
  build_leaf_spine(params);
  finish_wiring();
  end_build();
}

Network::Network(sim::ParallelSimulator& psim, const FatTreeParams& params)
    : profile_(params.profile) {
  begin_build();
  trace_cfg_ = params.trace;
  sampler_ = sim::TraceSampler(trace_cfg_);
  init_parallel(psim);
  split_hosts_ =
      params.host_shards_per_switch > 0 && params.host_link.propagation > 0;
  loss_seed_base_ = params.loss_seed ^ 0x7210'6b5eULL;
  build_fat_tree(params);
  finish_wiring();
  end_build();
}

void Network::begin_build() {
  build_t0_ms_ = wall_ms();
  build_reserved0_ = mat::StateAccounting::reserved_bytes();
  build_touched0_ = mat::StateAccounting::touched_bytes();
}

void Network::end_build() {
  construction_.build_ms = wall_ms() - build_t0_ms_;
  construction_.bytes_reserved = mat::StateAccounting::reserved_bytes() - build_reserved0_;
  construction_.bytes_touched = mat::StateAccounting::touched_bytes() - build_touched0_;
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
  scope.gauge("templates_built").set(static_cast<double>(construction_.templates_built));
  scope.gauge("templates_shared").set(static_cast<double>(construction_.templates_shared));
}

fastpath::FlowCacheStats Network::fastpath_stats_of(std::size_t i) const {
  return static_cast<const chassis::Chassis*>(switches_.at(i).device.get())->fastpath_stats();
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

void Network::init(sim::Simulator& sim, sim::Scope scope) {
  sim_ = &sim;
  scope_ = sim::resolve_scope(scope, own_metrics_, "topo");
  hops_ = &scope_.histogram("hops");
  // Arm the flight recorder before any component interns a recorder so
  // everything built below records from the first packet.
  if (trace_cfg_.enabled()) scope_.registry()->spans().enable(trace_cfg_.ring_capacity);
}

void Network::init_parallel(sim::ParallelSimulator& psim) {
  psim_ = &psim;
  // The network-level registry only carries the finalize_metrics() gauges;
  // everything shard-owned lives in shard_regs_ and is folded back in by
  // merged_snapshot().
  scope_ = sim::resolve_scope({}, own_metrics_, "topo");
}

/// Appends one shard with its own registry (spans armed when tracing) and
/// "topo.hops" histogram; returns the shard's Simulator. Every shard
/// registers the shared histogram name; merged_snapshot() folds the
/// per-shard sample sets back into one "topo.hops".
sim::Simulator& Network::add_shard_registry(sim::Scope& parent_out) {
  sim::Simulator& shard = psim_->add_shard();
  shard_regs_.push_back(std::make_unique<sim::MetricRegistry>());
  if (trace_cfg_.enabled()) {
    shard_regs_.back()->spans().enable(trace_cfg_.ring_capacity);
  }
  parent_out = shard_regs_.back()->scope("topo");
  shard_hops_.push_back(&parent_out.histogram("hops"));
  return shard;
}

Network::SwitchSlot& Network::add_switch(SwitchKind kind, std::uint32_t port_count,
                                         std::shared_ptr<ForwardingTable> fib,
                                         std::size_t host_count, net::Link host_link,
                                         std::uint64_t loss_seed) {
  const std::size_t i = switches_.size();
  sim::Simulator* sw_sim = sim_;
  sim::Simulator* host_sim = sim_;
  sim::Scope parent = scope_;
  sim::Scope host_parent = scope_;
  if (psim_ != nullptr) {
    switch_shard_.push_back(psim_->shard_count());
    sw_sim = &add_shard_registry(parent);
    if (split_hosts_ && host_count > 0) {
      // The hosts of this switch get their own shard: their events (NIC
      // pacing, rx accounting) are the bulk of the work on incast-heavy
      // scenarios, and splitting them off lets the partitioner balance
      // workers instead of pinning a whole rack to one thread.
      host_shard_.push_back(psim_->shard_count());
      host_sim = &add_shard_registry(host_parent);
    } else {
      host_shard_.push_back(switch_shard_.back());
      host_sim = sw_sim;
      host_parent = parent;
    }
  }
  kind_.push_back(kind);
  ctrl_ip_.push_back(0);
  mgmt_port_.push_back(packet::kInvalidPort);
  sim::Scope sw_scope = parent.scope("sw" + std::to_string(i));
  sim::Scope host_scope = host_parent.scope("sw" + std::to_string(i));
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
  slot.device =
      make_switch(*sw_sim, tmpl, profile_.share_templates, fib, sw_scope, sketch);
  // The fabric (hosts + pool) lives on the host shard; its TX dispatch
  // closure still runs on the switch shard but only routes — per-host
  // state is reached through the mailbox taps wired in finish_wiring().
  slot.fabric = std::make_unique<net::Fabric>(*host_sim, *slot.device, host_link,
                                              loss_seed, host_scope, host_count);
  slot.fib = std::move(fib);
  switches_.push_back(std::move(slot));
  return switches_.back();
}

std::size_t Network::switch_index_of(const net::SwitchDevice* device) const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i].device.get() == device) return i;
  }
  assert(false && "trunk endpoint is not a switch of this network");
  return 0;
}

std::size_t Network::add_trunk(Trunk::End a, Trunk::End b, net::Link link) {
  if (psim_ != nullptr) {
    const std::size_t i = strunks_.size();
    const std::size_t ai = switch_index_of(a.device);
    const std::size_t bi = switch_index_of(b.device);
    const std::string name = "topo.trunk" + std::to_string(i);
    auto st = std::make_unique<ShardedTrunk>();
    st->link = link;
    // Mailbox ids follow trunk creation order, a-side first, so the
    // barrier's (time, mailbox, seq) injection order is (time, trunk,
    // direction, fifo) — fixed by the topology, not by thread timing.
    const std::size_t as = switch_shard_[ai];
    const std::size_t bs = switch_shard_[bi];
    st->ab.to = b;
    st->ab.link = link;
    st->ab.src_sim = &psim_->shard(as);
    st->ab.mailbox = &psim_->add_mailbox(as, bs, link.propagation);
    st->ab.rng = sim::Rng(tm::placement::mix(loss_seed_base_ ^ (2 * i)));
    // Dropped packets recycle into the sending switch's fabric pool — but
    // only when that pool lives on the same shard. With split hosts the
    // pool belongs to the host shard, and releasing across the cut would
    // race; dropping the packet on the floor is correct (pools are an
    // allocation optimization, not an accounting surface).
    st->ab.drop_pool = host_shard_[ai] == as ? &switches_[ai].fabric->pool() : nullptr;
    sim::Scope sa = shard_regs_[as]->scope(name);
    st->ab.packets = &sa.counter("ab.packets");
    st->ab.bytes = &sa.counter("ab.bytes");
    st->ab.drops = &sa.counter("drops.link");
    st->ab.spans = sa.span_recorder();
    st->ab.side = 0;
    st->ba.to = a;
    st->ba.link = link;
    st->ba.src_sim = &psim_->shard(bs);
    st->ba.mailbox = &psim_->add_mailbox(bs, as, link.propagation);
    st->ba.rng = sim::Rng(tm::placement::mix(loss_seed_base_ ^ (2 * i + 1)));
    st->ba.drop_pool = host_shard_[bi] == bs ? &switches_[bi].fabric->pool() : nullptr;
    sim::Scope sb = shard_regs_[bs]->scope(name);
    st->ba.packets = &sb.counter("ba.packets");
    st->ba.bytes = &sb.counter("ba.bytes");
    st->ba.drops = &sb.counter("drops.link");
    st->ba.spans = sb.span_recorder();
    st->ba.side = 1;
    strunks_.push_back(std::move(st));
    return i;
  }
  const std::size_t i = trunks_.size();
  // Dropped trunk packets recycle into the pool of the lower-tier fabric
  // (the rack that sourced or will sink most of its traffic).
  packet::Pool* pool = nullptr;
  for (SwitchSlot& s : switches_) {
    if (s.device.get() == a.device) pool = &s.fabric->pool();
  }
  trunks_.push_back(std::make_unique<Trunk>(*sim_, a, b, link, &trunk_rng_, pool,
                                            scope_.scope("trunk" + std::to_string(i))));
  return i;
}

void Network::ShardedHalf::forward(packet::Packet pkt) {
  packets->add();
  bytes->add(pkt.size());
  if (link.loss_rate > 0.0 && rng.chance(link.loss_rate)) {
    drops->add();
    spans.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, src_sim->now(),
                  static_cast<std::uint64_t>(sim::DropReason::kLink));
    if (drop_pool != nullptr) drop_pool->release(std::move(pkt));
    return;
  }
  // Wire span in the sending shard's buffer; same [begin, end] and side
  // annotation as Trunk::forward, so sequential and parallel traces agree.
  spans.span(sim::SpanKind::kTrunk, pkt.meta.trace_id, src_sim->now(),
             src_sim->now() + link.propagation, side, pkt.size());
  Trunk::End* dst = &to;
  mailbox->push(src_sim->now() + link.propagation,
                [dst, pkt = std::move(pkt)]() mutable {
                  dst->device->inject(dst->port, std::move(pkt));
                });
}

void Network::HostTap::deliver(packet::Packet pkt) {
  // Runs on the switch shard (the device's TX completion). Mirrors
  // Host::deliver_from_switch's lossy tail with a per-host stream; drops
  // are counted here under the host's metric name so the merged snapshot
  // still sums host-side and switch-side drops into one "drops.link".
  if (link.loss_rate > 0.0 && rng.chance(link.loss_rate)) {
    drops->add();
    spans.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sw_sim->now(),
                  static_cast<std::uint64_t>(sim::DropReason::kLink));
    return;  // no pool release: the fabric pool lives on the host shard
  }
  // Span begin rides in the packet; [h, pkt] fills the inline callback
  // budget exactly (as in Host::deliver_from_switch).
  pkt.meta.trace_mark = sw_sim->now();
  net::Host* h = host;
  down->push(sw_sim->now() + link.propagation, [h, pkt = std::move(pkt)]() mutable {
    h->finish_rx(std::move(pkt));
  });
}

void Network::build_leaf_spine(const LeafSpineParams& p) {
  assert(p.leaves > 0 && p.spines > 0 && p.hosts_per_leaf > 0);
  assert(p.leaves <= 256 && p.hosts_per_leaf <= 256);
  assert(!(p.control_channel && p.hosts_per_leaf > 255) &&
         "host address 255 is the control address");
  control_channel_ = p.control_channel;
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
    add_switch(p.kind, leaf_ports, std::move(fib), H, p.host_link, p.loss_seed + l);
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
    add_switch(p.kind, spine_ports, std::move(fib), 0, p.host_link, p.loss_seed + L + s);
    if (armed) mgmt_port_.back() = L;
  }

  // Full bipartite leaf<->spine wiring; trunk l*S+s joins leaf l, spine s.
  ecmp_groups_.resize(L);
  for (std::uint32_t l = 0; l < L; ++l) {
    for (std::uint32_t s = 0; s < S; ++s) {
      ecmp_groups_[l].push_back(add_trunk({switches_[l].device.get(), H + s},
                                          {switches_[L + s].device.get(), l},
                                          p.trunk_link));
    }
  }
}

void Network::build_fat_tree(const FatTreeParams& p) {
  assert(p.k >= 2 && p.k % 2 == 0 && p.k <= 16);
  const std::uint32_t k = p.k;
  const std::uint32_t half = k / 2;
  const std::uint32_t edges = k * half;   // also the aggregation count
  const std::uint32_t cores = half * half;
  const auto edge_index = [half](std::uint32_t pod, std::uint32_t e) { return pod * half + e; };
  const auto agg_index = [edges, half](std::uint32_t pod, std::uint32_t a) {
    return edges + pod * half + a;
  };
  const auto core_index = [edges, half](std::uint32_t i, std::uint32_t j) {
    return 2 * edges + i * half + j;
  };
  std::uint64_t seed = p.loss_seed;
  control_channel_ = p.control_channel;
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
      add_switch(p.kind, edge_ports, std::move(fib), half, p.host_link, seed++);
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
      add_switch(p.kind, tier_ports, std::move(fib), 0, p.host_link, seed++);
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
      add_switch(p.kind, tier_ports, std::move(fib), 0, p.host_link, seed++);
      if (armed) mgmt_port_.back() = k;
    }
  }
  (void)cores;

  // Edge <-> aggregation inside each pod; aggregation <-> core across pods.
  ecmp_groups_.resize(edges + edges);
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t a = 0; a < half; ++a) {
        ecmp_groups_[edge_index(pod, e)].push_back(
            add_trunk({switches_[edge_index(pod, e)].device.get(), half + a},
                      {switches_[agg_index(pod, a)].device.get(), e}, p.trunk_link));
      }
    }
    for (std::uint32_t i = 0; i < half; ++i) {
      for (std::uint32_t j = 0; j < half; ++j) {
        // agg_index already lands in [edges, 2*edges) — the agg group slab.
        ecmp_groups_[agg_index(pod, i)].push_back(
            add_trunk({switches_[agg_index(pod, i)].device.get(), half + j},
                      {switches_[core_index(i, j)].device.get(), pod}, p.trunk_link));
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
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    SwitchSlot& slot = switches_[i];
    // Management-port TX runs on the switch's shard, so a sink stages
    // control updates into switch-owned state without crossing the cut.
    // The packet is dropped on the floor after the sink: with split hosts
    // the fabric pool lives on the host shard, and pools are an allocation
    // optimization, not an accounting surface.
    const packet::PortId mgmt = mgmt_port_[i];
    std::function<void(const packet::Packet&)>* sink =
        mgmt != packet::kInvalidPort ? &ctrl_sinks_[i] : nullptr;
    if (psim_ != nullptr) {
      std::vector<ShardedHalf*> map(slot.device->port_count(), nullptr);
      for (const auto& st : strunks_) {
        if (st->ba.to.device == slot.device.get()) map[st->ba.to.port] = &st->ab;
        if (st->ab.to.device == slot.device.get()) map[st->ab.to.port] = &st->ba;
      }
      slot.fabric->set_default_tx([map = std::move(map), mgmt, sink](
                                      packet::PortId port, packet::Packet pkt) {
        if (port == mgmt && sink != nullptr) {
          if (*sink) (*sink)(pkt);
          return;
        }
        if (port < map.size() && map[port] != nullptr) {
          map[port]->forward(std::move(pkt));
        }
      });
    } else {
      std::vector<std::pair<Trunk*, int>> map(slot.device->port_count(), {nullptr, 0});
      for (const auto& t : trunks_) {
        if (t->a().device == slot.device.get()) map[t->a().port] = {t.get(), 0};
        if (t->b().device == slot.device.get()) map[t->b().port] = {t.get(), 1};
      }
      slot.fabric->set_default_tx([map = std::move(map), mgmt, sink](
                                      packet::PortId port, packet::Packet pkt) {
        if (port == mgmt && sink != nullptr) {
          if (*sink) (*sink)(pkt);
          return;
        }
        if (port < map.size() && map[port].first != nullptr) {
          map[port].first->forward(map[port].second, std::move(pkt));
        }
      });
    }
  }

  // Split hosts: install the cross-shard taps. Every hosted switch gets
  // one mailbox pair (up: host shard -> switch shard, down: the reverse)
  // whose conservative latency is the access link's propagation delay; the
  // per-host taps share them. The tap RNG streams are seeded by global
  // host index, fixed by the topology — deterministic for any thread
  // count (but, like lossy trunks, a different stream than the sequential
  // fabric's shared one).
  if (psim_ != nullptr && split_hosts_) {
    std::size_t g = 0;  // global host index (host_loc_ creation order)
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      std::vector<net::Host>& hosts = switches_[i].fabric->hosts();
      if (hosts.empty() || host_shard_[i] == switch_shard_[i]) {
        g += hosts.size();
        continue;
      }
      const net::Link access = hosts.front().link();
      sim::Mailbox& up =
          psim_->add_mailbox(host_shard_[i], switch_shard_[i], access.propagation);
      sim::Mailbox& down =
          psim_->add_mailbox(switch_shard_[i], host_shard_[i], access.propagation);
      sim::Scope sw_side = shard_regs_[switch_shard_[i]]->scope("topo").scope(
          "sw" + std::to_string(i));
      for (net::Host& h : hosts) {
        auto tap = std::make_unique<HostTap>();
        tap->host = &h;
        tap->device = switches_[i].device.get();
        tap->port = h.port();
        tap->link = access;
        tap->sw_sim = &psim_->shard(switch_shard_[i]);
        tap->up = &up;
        tap->down = &down;
        tap->rng = sim::Rng(
            tm::placement::mix(loss_seed_base_ ^ (0xd011'0000ULL + g)));
        sim::Scope hs = sw_side.scope("host" + std::to_string(h.port()));
        tap->drops = &hs.counter("drops.link");
        tap->spans = hs.span_recorder();
        HostTap* t = tap.get();
        h.set_uplink([t](sim::Time at, packet::Packet pkt) {
          t->up->push(at, [t, pkt = std::move(pkt)]() mutable {
            t->device->inject(t->port, std::move(pkt));
          });
        });
        h.set_downlink([t](packet::Packet pkt) { t->deliver(std::move(pkt)); });
        taps_.push_back(std::move(tap));
        ++g;
      }
    }
  }

  // Hop-count probe: the routing programs decrement the wire TTL once per
  // switch, so a delivered packet's hop count is kIncInitialTtl - ttl.
  // Parallel mode records into the receiving host's shard histogram.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sim::Histogram* hist = psim_ != nullptr ? shard_hops_[host_shard_[i]] : hops_;
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
    for (const auto& st : strunks_) {
      ++degree[switch_index_of(st->ab.to.device)];
      ++degree[switch_index_of(st->ba.to.device)];
    }
    std::vector<double> w(psim_->shard_count(), 1.0);
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
      if (sample > 1 && sim::TraceSampler::mix(flow ^ seed) % sample != 0) return;
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

sim::Scope Network::switch_scope(std::size_t i) {
  assert(i < switches_.size());
  if (psim_ != nullptr) {
    return shard_regs_[switch_shard_[i]]->scope("topo").scope("sw" + std::to_string(i));
  }
  return scope_.scope("sw" + std::to_string(i));
}

sim::Scope Network::host_shard_scope(std::size_t i) {
  const std::size_t sw = host_loc_.at(i).first;
  if (psim_ != nullptr) return shard_regs_[host_shard_[sw]]->scope("topo");
  return scope_;
}

sim::Simulator& Network::sim_of_host(std::size_t i) {
  const std::size_t sw = host_loc_.at(i).first;
  return psim_ != nullptr ? psim_->shard(host_shard_.at(sw)) : *sim_;
}

sim::Simulator& Network::sim_of_switch(std::size_t i) {
  assert(i < switches_.size());
  return psim_ != nullptr ? psim_->shard(switch_shard_.at(i)) : *sim_;
}

std::uint64_t Network::trunk_packets(std::size_t i, int side) const {
  if (psim_ != nullptr) {
    const ShardedTrunk& st = *strunks_.at(i);
    return (side == 0 ? st.ab.packets : st.ba.packets)->value();
  }
  return trunks_.at(i)->packets(side);
}

std::uint64_t Network::trunk_bytes(std::size_t i, int side) const {
  if (psim_ != nullptr) {
    const ShardedTrunk& st = *strunks_.at(i);
    return (side == 0 ? st.ab.bytes : st.ba.bytes)->value();
  }
  return trunks_.at(i)->bytes(side);
}

sim::Histogram Network::merged_hops() const {
  sim::Histogram out;
  if (psim_ != nullptr) {
    for (const sim::Histogram* h : shard_hops_) out.merge(*h);
  } else {
    out.merge(*hops_);
  }
  return out;
}

std::vector<const sim::SpanBuffer*> Network::span_buffers() const {
  std::vector<const sim::SpanBuffer*> out;
  if (psim_ != nullptr) {
    out.reserve(shard_regs_.size());
    for (const auto& reg : shard_regs_) out.push_back(&reg->spans());
  } else {
    out.push_back(&scope_.registry()->spans());
  }
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
  // Split hosts: downlink losses are counted switch-side by the taps
  // (under the same per-host metric name), not in Host::metrics_.
  for (const auto& tap : taps_) total += tap->drops->value();
  return total;
}

std::uint64_t Network::total_trunk_drops() const {
  std::uint64_t total = 0;
  if (psim_ != nullptr) {
    for (const auto& st : strunks_) total += st->ab.drops->value() + st->ba.drops->value();
  } else {
    for (const auto& t : trunks_) total += t->drops();
  }
  return total;
}

void Network::finalize_metrics() {
  const sim::Time elapsed = psim_ != nullptr ? psim_->now() : sim_->now();
  const auto utilization = [&](std::size_t i, int side) {
    const net::Link& link = psim_ != nullptr ? strunks_[i]->link : trunks_[i]->link();
    if (elapsed == 0 || link.gbps <= 0.0) return 0.0;
    const double bits = static_cast<double>(trunk_bytes(i, side)) * 8.0;
    return bits * 1000.0 / (link.gbps * static_cast<double>(elapsed));
  };
  double max_util = 0.0;
  for (std::size_t i = 0; i < trunk_count(); ++i) {
    const double ab = utilization(i, 0);
    const double ba = utilization(i, 1);
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

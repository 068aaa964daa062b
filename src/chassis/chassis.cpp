#include "chassis/chassis.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "telem/tap.hpp"

namespace adcp::chassis {

Chassis::Chassis(sim::Simulator& sim, const sim::Scope& scope, const char* fallback,
                 std::uint32_t port_count, double port_gbps,
                 std::uint32_t fastpath_entries)
    : sim_(&sim),
      scope_(sim::resolve_scope(scope, own_metrics_, fallback)),
      spans_(scope_.span_recorder()),
      pool_(4096, scope_.scope("pool")),
      rx_packets_(scope_.counter("rx.packets")),
      rx_bytes_(scope_.counter("rx.bytes")),
      tx_packets_(scope_.counter("tx.packets")),
      tx_bytes_(scope_.counter("tx.bytes")),
      parse_drops_(scope_.counter("drops.parse")),
      program_drops_(scope_.counter("drops.program")),
      no_route_drops_(scope_.counter("drops.no_route")),
      port_count_(port_count),
      port_gbps_(port_gbps),
      fastpath_entries_(fastpath_entries),
      rx_free_(port_count, 0),
      tx_free_(port_count, 0),
      in_flight_(port_count, 0) {}

void Chassis::set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports) {
  multicast_[group] = std::move(ports);
}

void Chassis::arm_fastpath(fastpath::FastpathContract contract) {
  contract_ = std::move(contract);
  fast_.reset();
  ingress_site_ = {};
  egress_site_ = {};
  if (fastpath_entries_ > 0 && contract_.valid()) fast_.emplace(fastpath_entries_);
}

void Chassis::inject(packet::PortId port, packet::Packet pkt) {
  assert(port < port_count_);
  assert(parser_ && "load_program() must be called before traffic");
  rx_packets_.add();
  rx_bytes_.add(pkt.size());
  pkt.meta.ingress_port = port;
  pkt.meta.arrival = sim_->now();

  // RX serialization at port speed; the parser runs at port speed too
  // (paper §3.3), so the packet is PHV-ready when its last bit lands.
  sim::Time& free = rx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), port_gbps_);
  spans_.span(sim::SpanKind::kRx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable { on_rx(std::move(pkt)); });
}

void Chassis::transmit(packet::Packet pkt) {
  // The port rides in the packet metadata, so the TX continuation captures
  // only {this, Packet}: 96 of the 120 inline callback bytes.
  const packet::PortId port = pkt.meta.egress_port;
  ++in_flight_[port];
  sim::Time& free = tx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  // The tap may append INT trailer bytes, so it must run before the TX
  // serialization window is sized — the telemetry byte tax is simulated.
  if (tap_ != nullptr) tap_->at_tx(pkt, start, port);
  free = start + sim::serialization_time(pkt.size(), port_gbps_);
  spans_.span(sim::SpanKind::kTx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable {
    const packet::PortId port = pkt.meta.egress_port;
    tx_packets_.add();
    tx_bytes_.add(pkt.size());
    if (first_tx_ == 0) first_tx_ = sim_->now();
    last_tx_ = sim_->now();
    --in_flight_[port];
    if (tx_handler_) tx_handler_(port, std::move(pkt));
    kick_port(port);
  });
}

void Chassis::kick(Feed& feed, std::uint32_t out) {
  if (feed.pending[out] || port_full(feed, out) || feed.tm->output_packets(out) == 0) return;
  feed.pending[out] = true;
  sim_->at(sim_->now(), [this, &feed, out] { drain(feed, out); });
}

void Chassis::kick_port(packet::PortId port) {
  // The in-flight cap is per port, so a freed slot may unblock any of the
  // port's outputs (ADCP's m egress sub-pipes). RTC has no egress feed.
  const std::uint32_t first = port * egress_.per_port;
  for (std::uint32_t out = first; out < first + egress_.per_port; ++out) kick(egress_, out);
}

void Chassis::drain(Feed& feed, std::uint32_t out) {
  feed.pending[out] = false;
  if (port_full(feed, out)) return;
  std::optional<packet::Packet> pkt = feed.tm->dequeue(out);
  if (!pkt) return;  // empty, or a strict merge is holding back
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark, sim_->now(),
              out);
  const pipeline::Pipeline* pipe = start(feed, out, std::move(*pkt));
  if (pipe == nullptr) {
    kick(feed, out);
    return;
  }
  // Keep the pipe fed: attempt the next dequeue when it can admit another
  // PHV. The transit's exit was scheduled first, so sequence numbers
  // follow the datapath order.
  if (feed.tm->output_packets(out) > 0) {
    feed.pending[out] = true;
    sim_->at(std::max(pipe->next_free(), sim_->now()), [this, &feed, out] { drain(feed, out); });
  }
}

bool Chassis::port_full(const Feed& feed, std::uint32_t out) const {
  return feed.per_port != 0 && in_flight_[out / feed.per_port] >= kMaxInFlightPerPort;
}

void Chassis::drop(packet::Packet pkt, sim::DropReason reason, sim::Counter& counter) {
  counter.add();
  spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                 static_cast<std::uint64_t>(reason));
  if (tap_ != nullptr) tap_->on_drop(pkt, reason, sim_->now());
  pool_.release(std::move(pkt));
}

bool Chassis::program_dropped(TransitSlot* t) {
  if (t->pr.phv.get_or(packet::fields::kMetaDrop, 0) == 0) return false;
  drop(std::move(t->pkt), sim::DropReason::kProgram, program_drops_);
  transit_.release(t);
  return true;
}

bool Chassis::admit(tm::TrafficManager& tm, std::uint32_t output, packet::Packet pkt,
                    bool stamp_depth) {
  const std::uint64_t trace_id = pkt.meta.trace_id;
  pkt.meta.trace_mark = sim_->now();  // TM residency span begins here
  if (tap_ != nullptr) {
    if (stamp_depth) pkt.meta.set_telem_depth(tm.output_packets(output));
    if (!tm.buffer().admits(output, pkt.size())) {
      tap_->on_drop(pkt, sim::DropReason::kAdmission, sim_->now());
    }
  }
  if (!tm.enqueue(output, 0, std::move(pkt))) {
    spans_.instant(sim::SpanKind::kDrop, trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kAdmission), output);
    return false;
  }
  spans_.instant(sim::SpanKind::kTmEnqueue, trace_id, sim_->now(), tm.output_packets(output),
                 output);
  return true;
}

Chassis::TransitSlot* Chassis::parse(packet::Packet pkt) {
  TransitSlot* t = transit_.acquire();
  parser_->parse_into(pkt, t->pr);
  if (!t->pr.accepted) {
    drop(std::move(pkt), sim::DropReason::kParse, parse_drops_);
    transit_.release(t);
    return nullptr;
  }
  t->pkt = std::move(pkt);
  return t;
}

packet::Packet Chassis::finalize(TransitSlot* t) {
  // Only INC packets are rewritten from the PHV; anything else is forwarded
  // byte-identical (the deparser emit program is INC-shaped).
  packet::Packet out;
  if (t->pr.phv.get_or(packet::fields::kUdpDst, 0) == packet::kIncUdpPort) {
    out = pool_.acquire();
    deparser_->deparse_into(t->pr.phv, t->pkt, t->pr.consumed, out);
    pool_.release(std::move(t->pkt));
  } else {
    out = std::move(t->pkt);
  }
  transit_.release(t);
  return out;
}

void Chassis::resolve(TransitSlot* t) {
  if (program_dropped(t)) return;
  const packet::Phv& phv = t->pr.phv;
  const std::uint64_t group = phv.get_or(packet::fields::kMetaMulticastGroup, 0);
  const std::uint64_t egress = phv.get_or(packet::fields::kMetaEgressPort, packet::kInvalidPort);
  if (fast_ && group == 0 && !t->pkt.meta.recirc_request && egress < port_count_) {
    fill(t, static_cast<packet::PortId>(egress));
  }
  packet::Packet out = finalize(t);
  if (group != 0) {
    const auto it = multicast_.find(static_cast<std::uint32_t>(group));
    if (it != multicast_.end() && !it->second.empty()) {
      fan_out(std::move(out), it->second);
      return;
    }
  } else if (egress < port_count_) {
    out.meta.egress_port = static_cast<packet::PortId>(egress);
    forward(std::move(out));
    return;
  }
  drop(std::move(out), sim::DropReason::kNoRoute, no_route_drops_);
}

void Chassis::fan_out(packet::Packet pkt, const std::vector<packet::PortId>& ports) {
  for (const packet::PortId port : ports) forward(replica(pkt, port));
  pool_.release(std::move(pkt));  // replicas were copies; retire the template
}

packet::Packet Chassis::replica(const packet::Packet& tmpl, packet::PortId port) {
  packet::Packet copy = pool_.acquire();
  copy.data = tmpl.data;
  copy.meta = tmpl.meta;
  copy.meta.egress_port = port;
  return copy;
}

bool Chassis::is_query(const fastpath::WireView& w) const {
  return contract_.store != nullptr &&
         w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
}

Chassis::FastSlot* Chassis::probe(packet::Packet& pkt) {
  if (!fast_) return nullptr;
  fast_->sync(contract_);
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return nullptr;
  if (w.ttl < 2) return nullptr;  // the slow path owns the TTL-expiry drop
  if (pkt.meta.recirc_request) return nullptr;  // so does RMT recirculation
  const bool query = is_query(w);
  const fastpath::FlowCache::Entry* e = fast_->probe(w, pkt.meta.ingress_port, query);
  if (e == nullptr) return nullptr;
  FastSlot* f = fast_slots_.acquire();
  f->wire = w;
  f->patch = fastpath::Patch::kForward;
  f->egress = e->forward_port;
  f->timing = e->timing;
  std::uint32_t value = 0;
  if (query &&
      contract_.store->lookup(w.worker_id, value) == mat::VersionedStore::Lookup::kHit) {
    f->patch = fastpath::Patch::kServed;
    f->egress = e->served_port;
  }
  f->pkt = std::move(pkt);
  return f;
}

Chassis::FastSlot* Chassis::passthrough(packet::Packet& pkt, const fastpath::StaticSite& site) {
  if (!fast_ || !site.valid || pkt.meta.recirc_request) return nullptr;
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return nullptr;
  FastSlot* f = fast_slots_.acquire();
  f->wire = w;
  f->patch = fastpath::Patch::kPassthrough;
  f->egress = pkt.meta.egress_port;
  f->timing = site.timing;
  f->pkt = std::move(pkt);
  return f;
}

void Chassis::learn(fastpath::StaticSite& site, const pipeline::Transit& tr) {
  if (fast_ && contract_.passthrough_edges && !site.valid) site = {true, timing_of(tr)};
}

packet::Packet Chassis::unpark(FastSlot* f) {
  packet::Packet out = fastpath::copy_patch(pool_, std::move(f->pkt), f->wire, f->patch);
  out.meta.egress_port = f->egress;
  fast_slots_.release(f);
  return out;
}

void Chassis::fill(const TransitSlot* t, packet::PortId egress) {
  fastpath::WireView w;
  if (!fastpath::inspect(t->pkt, contract_.parse_max_elems, w) || w.ttl < 2) return;
  const bool query = is_query(w);
  // Precompute both churn branches; memoize only if the contract's route
  // reproduces the verdict the program actually emitted for this packet.
  const packet::PortId forward = contract_.route(w.ip_dst, w.ip_src, w.udp_src, w.udp_dst);
  packet::PortId served = forward;
  bool served_branch = false;
  if (query) {
    served = contract_.route(w.ip_src, w.ip_dst, w.udp_src, w.udp_dst);
    served_branch = t->pr.phv.get_or(packet::fields::kIncOpcode, 0) ==
                    static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit);
  }
  if ((served_branch ? served : forward) != egress) return;
  fast_->fill(w, t->pkt.meta.ingress_port, query, forward, served, t->timing);
}

SwitchStats Chassis::switch_stats() const {
  return SwitchStats{rx_packets_.value(),    rx_bytes_.value(),      tx_packets_.value(),
                     tx_bytes_.value(),      parse_drops_.value(),   program_drops_.value(),
                     no_route_drops_.value()};
}

double Chassis::achieved_tx_gbps() const {
  if (last_tx_ <= first_tx_) return 0.0;
  return static_cast<double>(tx_bytes_.value()) * 8.0 * 1000.0 /
         static_cast<double>(last_tx_ - first_tx_);
}

}  // namespace adcp::chassis

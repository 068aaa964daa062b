#include "core/adcp_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "telem/tap.hpp"
#include "tm/placement.hpp"

namespace adcp::core {

namespace {
constexpr std::uint32_t kMaxInFlightPerPort = 4;

/// Only INC packets are rewritten from the PHV; anything else is forwarded
/// byte-identical (the deparser emit program is INC-shaped).
bool is_inc(const packet::Phv& phv) {
  return phv.get_or(packet::fields::kUdpDst, 0) == packet::kIncUdpPort;
}
}  // namespace

AdcpSwitch::AdcpSwitch(sim::Simulator& sim, const AdcpConfig& config, sim::Scope scope)
    : sim_(&sim),
      config_(config),
      scope_(sim::resolve_scope(scope, own_metrics_, "adcp")),
      metrics_(scope_),
      spans_(scope_.span_recorder()),
      pool_(4096, scope_.scope("pool")) {
  pipeline::PipelineConfig pc;
  pc.stage_count = config.edge_stages;
  pc.clock_ghz = config.edge_clock_ghz;
  pc.stage = config.edge_stage;
  for (std::uint32_t i = 0; i < config.edge_pipeline_count(); ++i) {
    pc.name = "adcp-ingress-" + std::to_string(i);
    ingress_pipes_.emplace_back(pc);
    pc.name = "adcp-egress-" + std::to_string(i);
    egress_pipes_.emplace_back(pc);
  }
  pipeline::PipelineConfig cc;
  cc.stage_count = config.central_stages;
  cc.clock_ghz = config.central_clock_ghz;
  cc.stage = config.central_stage;
  for (std::uint32_t i = 0; i < config.central_pipeline_count; ++i) {
    cc.name = "adcp-central-" + std::to_string(i);
    central_pipes_.emplace_back(cc);
  }

  rx_free_.assign(config.port_count, 0);
  tx_free_.assign(config.port_count, 0);
  rr_demux_.assign(config.port_count, 0);
  central_pending_.assign(config.central_pipeline_count, false);
  egress_pending_.assign(config.edge_pipeline_count(), false);
  in_flight_.assign(config.port_count, 0);
}

void AdcpSwitch::load_program(AdcpProgram program) {
  assert(program.placement && "AdcpProgram::placement is mandatory (§3.1)");
  parse_graph_ = program.shared_parse
                     ? std::move(program.shared_parse)
                     : std::make_shared<const packet::ParseGraph>(std::move(program.parse));
  parser_.emplace(parse_graph_.get());
  deparser_ = program.shared_deparse
                  ? std::move(program.shared_deparse)
                  : std::make_shared<const packet::Deparser>(std::move(program.deparse));
  placement_ = std::move(program.placement);
  demux_ = std::move(program.demux);
  egress_demux_ = std::move(program.egress_demux);

  for (std::uint32_t i = 0; i < config_.edge_pipeline_count(); ++i) {
    if (program.setup_ingress) program.setup_ingress(ingress_pipes_[i], i);
    if (program.setup_egress) program.setup_egress(egress_pipes_[i], i);
  }
  for (std::uint32_t i = 0; i < config_.central_pipeline_count; ++i) {
    if (program.setup_central) program.setup_central(central_pipes_[i], i);
  }

  tm::TmConfig t1;
  t1.outputs = config_.central_pipeline_count;
  t1.buffer_bytes = config_.tm1_buffer_bytes;
  t1.alpha = config_.tm1_alpha;
  t1.make_scheduler = std::move(program.tm1_scheduler);
  t1.track_watermark = config_.tm_track_watermark;
  tm1_.emplace(std::move(t1), scope_.scope("tm1"));

  tm::TmConfig t2;
  t2.outputs = config_.edge_pipeline_count();
  t2.buffer_bytes = config_.tm2_buffer_bytes;
  t2.alpha = config_.tm2_alpha;
  t2.ecn_threshold_bytes = config_.ecn_threshold_bytes;
  t2.make_scheduler = std::move(program.tm2_scheduler);
  t2.track_watermark = config_.tm_track_watermark;
  tm2_.emplace(std::move(t2), scope_.scope("tm2"));
  tm1_->set_pool(&pool_);
  tm2_->set_pool(&pool_);

  // Re-arm the fast path from scratch: load_program may be called again
  // over an already-programmed switch (ControlPlane::attach does), and any
  // previously memoized verdict belongs to the replaced program.
  contract_ = std::move(program.fastpath);
  fast_.reset();
  ingress_site_ = {};
  egress_site_ = {};
  if (config_.fastpath_entries > 0 && contract_.valid()) {
    fast_.emplace(config_.fastpath_entries);
  }
}

void AdcpSwitch::set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports) {
  multicast_[group] = std::move(ports);
}

void AdcpSwitch::kick_central(std::uint32_t cp) { try_drain_central(cp); }

void AdcpSwitch::inject(packet::PortId port, packet::Packet pkt) {
  assert(port < config_.port_count);
  assert(parser_ && "load_program() must be called before traffic");
  metrics_.rx_packets.add();
  metrics_.rx_bytes.add(pkt.size());
  pkt.meta.ingress_port = port;
  pkt.meta.arrival = sim_->now();

  // RX + parse happen at port speed (§3.3: "parsing still needs to be done
  // at port speed"); only then is the PHV handed to a slower edge pipeline.
  sim::Time& free = rx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), config_.port_gbps);

  std::uint32_t sub = 0;
  if (demux_) {
    sub = demux_(pkt) % config_.demux_factor;
  } else {
    sub = rr_demux_[port];
    rr_demux_[port] = (sub + 1) % config_.demux_factor;
  }
  const std::uint32_t edge_pipe = config_.edge_pipe_index(port, sub);
  spans_.span(sim::SpanKind::kRx, pkt.meta.trace_id, start, free, port, pkt.size());
  // [this, pkt, edge_pipe] is one word over the inline-closure budget and
  // would heap-spill per packet; park the packet in a pooled slot instead.
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->pipe = edge_pipe;
  sim_->at(free, [this, f] {
    packet::Packet p = std::move(f->pkt);
    const std::uint32_t pipe = f->pipe;
    fast_slots_.release(f);
    enter_ingress(std::move(p), pipe);
  });
}

bool AdcpSwitch::try_fast_ingress(packet::Packet& pkt, std::uint32_t edge_pipe) {
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return false;
  pipeline::Pipeline& ingress = ingress_pipes_[edge_pipe];
  const pipeline::Transit tr =
      ingress.advance(sim_->now(), ingress_site_.timing.cycles,
                      ingress_site_.timing.max_service, ingress_site_.timing.stall_cycles);
  spans_.span(sim::SpanKind::kIngress, pkt.meta.trace_id, sim_->now(), tr.exit, edge_pipe);
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->wire = w;
  sim_->at(tr.exit, [this, f] { after_ingress_fast(f); });
  return true;
}

void AdcpSwitch::after_ingress_fast(FastSlot* f) {
  packet::Packet out = fastpath::copy_patch(pool_, std::move(f->pkt), f->wire,
                                            fastpath::Patch::kPassthrough);
  fast_slots_.release(f);
  enqueue_central(std::move(out));
}

bool AdcpSwitch::try_fast_central(packet::Packet& pkt, std::uint32_t cp) {
  fast_->sync(contract_);
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return false;
  if (w.ttl < 2) return false;  // the slow path owns the TTL-expiry drop
  const bool query =
      contract_.store != nullptr &&
      w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
  fastpath::FlowCache::Entry* e = fast_->probe(w, pkt.meta.ingress_port, query);
  if (e == nullptr) {
    if (config_.fastpath_miss_spans) {
      spans_.instant(sim::SpanKind::kFastpathMiss, pkt.meta.trace_id, sim_->now(), cp);
    }
    return false;
  }
  // Store-dependent behavior runs live, at the same event the slow path
  // would have run it in (ctrl.* counters stay identical cache-on/off).
  fastpath::Patch patch = fastpath::Patch::kForward;
  packet::PortId egress = e->forward_port;
  if (query) {
    std::uint32_t value = 0;
    if (contract_.store->lookup(w.worker_id, value) ==
        mat::VersionedStore::Lookup::kHit) {
      patch = fastpath::Patch::kServed;
      egress = e->served_port;
    }
  }
  pipeline::Pipeline& central = central_pipes_[cp];
  const pipeline::Transit tr = central.advance(
      sim_->now(), e->timing.cycles, e->timing.max_service, e->timing.stall_cycles);
  spans_.span(sim::SpanKind::kCentral, pkt.meta.trace_id, sim_->now(), tr.exit, cp);
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->wire = w;
  f->egress = egress;
  f->patch = patch;
  sim_->at(tr.exit, [this, f] { after_central_fast(f); });
  return true;
}

void AdcpSwitch::after_central_fast(FastSlot* f) {
  packet::Packet out =
      fastpath::copy_patch(pool_, std::move(f->pkt), f->wire, f->patch);
  const packet::PortId egress = f->egress;
  fast_slots_.release(f);
  out.meta.egress_port = egress;
  route_to_egress(std::move(out));
}

bool AdcpSwitch::try_fast_egress(packet::Packet& pkt, std::uint32_t edge_pipe) {
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return false;
  const std::uint32_t port = config_.port_of_edge_pipe(edge_pipe);
  pipeline::Pipeline& egress = egress_pipes_[edge_pipe];
  const pipeline::Transit tr =
      egress.advance(sim_->now(), egress_site_.timing.cycles,
                     egress_site_.timing.max_service, egress_site_.timing.stall_cycles);
  spans_.span(sim::SpanKind::kEgress, pkt.meta.trace_id, sim_->now(), tr.exit, edge_pipe,
              port);
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->wire = w;
  sim_->at(tr.exit, [this, f] { after_egress_fast(f); });
  return true;
}

void AdcpSwitch::after_egress_fast(FastSlot* f) {
  packet::Packet out = fastpath::copy_patch(pool_, std::move(f->pkt), f->wire,
                                            fastpath::Patch::kPassthrough);
  fast_slots_.release(f);
  transmit(std::move(out));
}

void AdcpSwitch::fill_fastpath(const TransitSlot* t, packet::PortId egress) {
  fastpath::WireView w;
  if (!fastpath::inspect(t->pkt, contract_.parse_max_elems, w)) return;
  if (w.ttl < 2) return;
  const bool query =
      contract_.store != nullptr &&
      w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
  // Precompute both churn branches; memoize only if the contract's route
  // reproduces the verdict the program actually emitted for this packet.
  const packet::PortId forward =
      contract_.route(w.ip_dst, w.ip_src, w.udp_src, w.udp_dst);
  packet::PortId served = forward;
  bool served_branch = false;
  if (query) {
    served = contract_.route(w.ip_src, w.ip_dst, w.udp_src, w.udp_dst);
    served_branch = t->pr.phv.get_or(packet::fields::kIncOpcode, 0) ==
                    static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit);
  }
  if ((served_branch ? served : forward) != egress) return;
  fast_->fill(w, t->pkt.meta.ingress_port, query, forward, served,
              {t->tr.cycles, t->tr.max_service, t->tr.stall_cycles, 0});
}

void AdcpSwitch::enter_ingress(packet::Packet pkt, std::uint32_t edge_pipe) {
  if (fast_ && ingress_site_.valid && try_fast_ingress(pkt, edge_pipe)) return;
  TransitSlot* t = transit_.acquire();
  parser_->parse_into(pkt, t->pr);
  if (!t->pr.accepted) {
    metrics_.parse_drops.add();
    spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kParse));
    if (tap_ != nullptr) tap_->on_drop(pkt, sim::DropReason::kParse, sim_->now());
    pool_.release(std::move(pkt));
    transit_.release(t);
    return;
  }
  pipeline::Pipeline& ingress = ingress_pipes_[edge_pipe];
  const pipeline::Transit tr = ingress.process(sim_->now(), t->pr.phv);
  // Edge stages carry no program under the passthrough contract; one
  // measured transit is the timing template for every later packet.
  if (fast_ && contract_.passthrough_edges && !ingress_site_.valid) {
    ingress_site_ = {true, {tr.cycles, tr.max_service, tr.stall_cycles, 0}};
  }
  spans_.span(sim::SpanKind::kIngress, pkt.meta.trace_id, sim_->now(), tr.exit, edge_pipe);
  t->pkt = std::move(pkt);
  sim_->at(tr.exit, [this, t] { after_ingress(t); });
}

packet::Packet AdcpSwitch::finalize(const packet::Phv& phv, packet::Packet original,
                                    std::size_t consumed) {
  if (!is_inc(phv)) return original;
  packet::Packet out = pool_.acquire();
  deparser_->deparse_into(phv, original, consumed, out);
  pool_.release(std::move(original));
  return out;
}

void AdcpSwitch::after_ingress(TransitSlot* t) {
  if (t->pr.phv.get_or(packet::fields::kMetaDrop, 0) != 0) {
    metrics_.program_drops.add();
    spans_.instant(sim::SpanKind::kDrop, t->pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kProgram));
    if (tap_ != nullptr) tap_->on_drop(t->pkt, sim::DropReason::kProgram, sim_->now());
    pool_.release(std::move(t->pkt));
    transit_.release(t);
    return;
  }
  packet::Packet out = finalize(t->pr.phv, std::move(t->pkt), t->pr.consumed);
  transit_.release(t);
  enqueue_central(std::move(out));
}

void AdcpSwitch::enqueue_central(packet::Packet pkt) {
  // TM1: application-defined placement over the global partitioned area.
  const std::uint32_t cp = placement_(pkt) % config_.central_pipeline_count;
  const std::uint64_t trace_id = pkt.meta.trace_id;
  pkt.meta.trace_mark = sim_->now();  // TM1 residency span begins here
  if (tap_ != nullptr && !tm1_->buffer().admits(cp, pkt.size())) {
    tap_->on_drop(pkt, sim::DropReason::kAdmission, sim_->now());
  }
  if (!tm1_->enqueue(cp, 0, std::move(pkt))) {
    spans_.instant(sim::SpanKind::kDrop, trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kAdmission), cp);
  } else {
    spans_.instant(sim::SpanKind::kTmEnqueue, trace_id, sim_->now(),
                   tm1_->output_packets(cp), cp);
  }
  try_drain_central(cp);
}

void AdcpSwitch::try_drain_central(std::uint32_t cp) {
  if (central_pending_[cp]) return;
  if (tm1_->output_packets(cp) == 0) return;
  central_pending_[cp] = true;
  sim_->at(sim_->now(), [this, cp] { drain_central(cp); });
}

void AdcpSwitch::drain_central(std::uint32_t cp) {
  central_pending_[cp] = false;
  std::optional<packet::Packet> pkt = tm1_->dequeue(cp);
  if (!pkt) return;  // empty, or a strict merge is holding back
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark,
              sim_->now(), cp);

  if (fast_ && try_fast_central(*pkt, cp)) {
    // Keep the central pipe fed, exactly as the slow path below does.
    if (tm1_->output_packets(cp) > 0) {
      central_pending_[cp] = true;
      sim_->at(std::max(central_pipes_[cp].next_free(), sim_->now()),
               [this, cp] { drain_central(cp); });
    }
    return;
  }

  TransitSlot* t = transit_.acquire();
  parser_->parse_into(*pkt, t->pr);
  if (!t->pr.accepted) {
    metrics_.parse_drops.add();
    spans_.instant(sim::SpanKind::kDrop, pkt->meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kParse));
    if (tap_ != nullptr) tap_->on_drop(*pkt, sim::DropReason::kParse, sim_->now());
    pool_.release(std::move(*pkt));
    transit_.release(t);
    try_drain_central(cp);
    return;
  }
  t->pr.phv.set(packet::fields::kMetaCentralPipe, cp);

  pipeline::Pipeline& central = central_pipes_[cp];
  const pipeline::Transit tr = central.process(sim_->now(), t->pr.phv);
  spans_.span(sim::SpanKind::kCentral, pkt->meta.trace_id, sim_->now(), tr.exit, cp);
  t->pkt = std::move(*pkt);
  t->tr = tr;
  sim_->at(tr.exit, [this, t] { after_central(t); });

  if (tm1_->output_packets(cp) > 0) {
    central_pending_[cp] = true;
    sim_->at(std::max(central.next_free(), sim_->now()), [this, cp] { drain_central(cp); });
  }
}

void AdcpSwitch::after_central(TransitSlot* t) {
  const packet::Phv& phv = t->pr.phv;
  if (phv.get_or(packet::fields::kMetaDrop, 0) != 0) {
    metrics_.program_drops.add();
    spans_.instant(sim::SpanKind::kDrop, t->pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kProgram));
    if (tap_ != nullptr) tap_->on_drop(t->pkt, sim::DropReason::kProgram, sim_->now());
    pool_.release(std::move(t->pkt));
    transit_.release(t);
    return;
  }
  const std::uint64_t group = phv.get_or(packet::fields::kMetaMulticastGroup, 0);
  const std::uint64_t egress_field = phv.get_or(packet::fields::kMetaEgressPort,
                                                packet::kInvalidPort);
  // Memoize unicast forward verdicts while the original bytes are intact.
  if (fast_ && group == 0 && egress_field < config_.port_count) {
    fill_fastpath(t, static_cast<packet::PortId>(egress_field));
  }
  packet::Packet out = finalize(phv, std::move(t->pkt), t->pr.consumed);
  transit_.release(t);

  if (group != 0) {
    const auto it = multicast_.find(static_cast<std::uint32_t>(group));
    if (it == multicast_.end() || it->second.empty()) {
      metrics_.no_route_drops.add();
      spans_.instant(sim::SpanKind::kDrop, out.meta.trace_id, sim_->now(),
                     static_cast<std::uint64_t>(sim::DropReason::kNoRoute));
      if (tap_ != nullptr) tap_->on_drop(out, sim::DropReason::kNoRoute, sim_->now());
      pool_.release(std::move(out));
      return;
    }
    for (const packet::PortId port : it->second) {
      packet::Packet copy = pool_.acquire();
      copy.data = out.data;
      copy.meta = out.meta;
      copy.meta.egress_port = port;
      route_to_egress(std::move(copy));
    }
    pool_.release(std::move(out));  // replicas were copies; retire the template
    return;
  }

  if (egress_field >= config_.port_count) {
    metrics_.no_route_drops.add();
    spans_.instant(sim::SpanKind::kDrop, out.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kNoRoute));
    if (tap_ != nullptr) tap_->on_drop(out, sim::DropReason::kNoRoute, sim_->now());
    pool_.release(std::move(out));
    return;
  }
  out.meta.egress_port = static_cast<packet::PortId>(egress_field);
  route_to_egress(std::move(out));
}

void AdcpSwitch::route_to_egress(packet::Packet pkt) {
  // TM2 behaves as a classic scheduler. The egress sub-pipeline choice
  // defaults to a flow-id hash so each flow stays in order across the m:1
  // TX mux (programs may override via AdcpProgram::egress_demux).
  const packet::PortId port = pkt.meta.egress_port;
  std::uint32_t sub = 0;
  if (egress_demux_) {
    sub = egress_demux_(pkt) % config_.demux_factor;
  } else {
    sub = static_cast<std::uint32_t>(tm::placement::mix(pkt.meta.flow_id) %
                                     config_.demux_factor);
  }
  const std::uint32_t edge_pipe = config_.edge_pipe_index(port, sub);
  const std::uint64_t trace_id = pkt.meta.trace_id;
  pkt.meta.trace_mark = sim_->now();  // TM2 residency span begins here
  if (tap_ != nullptr) {
    pkt.meta.set_telem_depth(tm2_->output_packets(edge_pipe));
    if (!tm2_->buffer().admits(edge_pipe, pkt.size())) {
      tap_->on_drop(pkt, sim::DropReason::kAdmission, sim_->now());
    }
  }
  if (!tm2_->enqueue(edge_pipe, 0, std::move(pkt))) {
    spans_.instant(sim::SpanKind::kDrop, trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kAdmission), edge_pipe);
  } else {
    spans_.instant(sim::SpanKind::kTmEnqueue, trace_id, sim_->now(),
                   tm2_->output_packets(edge_pipe), edge_pipe);
  }
  try_drain_egress(edge_pipe);
}

void AdcpSwitch::kick_port_egress(std::uint32_t port) {
  // The in-flight cap is per PORT; freeing a slot may unblock any of the
  // port's m egress sub-pipelines.
  for (std::uint32_t sub = 0; sub < config_.demux_factor; ++sub) {
    try_drain_egress(config_.edge_pipe_index(port, sub));
  }
}

void AdcpSwitch::try_drain_egress(std::uint32_t edge_pipe) {
  if (egress_pending_[edge_pipe]) return;
  const std::uint32_t port = config_.port_of_edge_pipe(edge_pipe);
  if (in_flight_[port] >= kMaxInFlightPerPort) return;
  if (tm2_->output_packets(edge_pipe) == 0) return;
  egress_pending_[edge_pipe] = true;
  sim_->at(sim_->now(), [this, edge_pipe] { drain_egress(edge_pipe); });
}

void AdcpSwitch::drain_egress(std::uint32_t edge_pipe) {
  egress_pending_[edge_pipe] = false;
  const std::uint32_t port = config_.port_of_edge_pipe(edge_pipe);
  if (in_flight_[port] >= kMaxInFlightPerPort) return;
  std::optional<packet::Packet> pkt = tm2_->dequeue(edge_pipe);
  if (!pkt) return;
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark,
              sim_->now(), edge_pipe);

  if (fast_ && egress_site_.valid && try_fast_egress(*pkt, edge_pipe)) {
    // Keep the egress pipe fed, exactly as the slow path below does.
    if (tm2_->output_packets(edge_pipe) > 0) {
      egress_pending_[edge_pipe] = true;
      sim_->at(std::max(egress_pipes_[edge_pipe].next_free(), sim_->now()),
               [this, edge_pipe] { drain_egress(edge_pipe); });
    }
    return;
  }

  TransitSlot* t = transit_.acquire();
  parser_->parse_into(*pkt, t->pr);
  if (!t->pr.accepted) {
    metrics_.parse_drops.add();
    spans_.instant(sim::SpanKind::kDrop, pkt->meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kParse));
    if (tap_ != nullptr) tap_->on_drop(*pkt, sim::DropReason::kParse, sim_->now());
    pool_.release(std::move(*pkt));
    transit_.release(t);
    try_drain_egress(edge_pipe);
    return;
  }
  t->pr.phv.set(packet::fields::kMetaEgressPort, pkt->meta.egress_port);

  pipeline::Pipeline& egress = egress_pipes_[edge_pipe];
  const pipeline::Transit tr = egress.process(sim_->now(), t->pr.phv);
  if (fast_ && contract_.passthrough_edges && !egress_site_.valid) {
    egress_site_ = {true, {tr.cycles, tr.max_service, tr.stall_cycles, 0}};
  }
  spans_.span(sim::SpanKind::kEgress, pkt->meta.trace_id, sim_->now(), tr.exit, edge_pipe,
              port);
  t->pkt = std::move(*pkt);
  t->pipe = edge_pipe;
  sim_->at(tr.exit, [this, t] { after_egress(t); });

  if (tm2_->output_packets(edge_pipe) > 0) {
    egress_pending_[edge_pipe] = true;
    sim_->at(std::max(egress.next_free(), sim_->now()),
             [this, edge_pipe] { drain_egress(edge_pipe); });
  }
}

void AdcpSwitch::after_egress(TransitSlot* t) {
  const std::uint32_t port = config_.port_of_edge_pipe(t->pipe);
  if (t->pr.phv.get_or(packet::fields::kMetaDrop, 0) != 0) {
    metrics_.program_drops.add();
    spans_.instant(sim::SpanKind::kDrop, t->pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kProgram));
    if (tap_ != nullptr) tap_->on_drop(t->pkt, sim::DropReason::kProgram, sim_->now());
    pool_.release(std::move(t->pkt));
    transit_.release(t);
    kick_port_egress(port);
    return;
  }
  packet::Packet out = finalize(t->pr.phv, std::move(t->pkt), t->pr.consumed);
  transit_.release(t);
  out.meta.egress_port = port;
  transmit(std::move(out));
}

void AdcpSwitch::transmit(packet::Packet pkt) {
  // The packet occupies the small egress FIFO from pipe exit to TX
  // completion. The port rides in the packet metadata: {this, Packet}
  // fills the inline callback capacity exactly, so one more captured word
  // would heap-spill.
  const packet::PortId port = pkt.meta.egress_port;
  ++in_flight_[port];
  sim::Time& free = tx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  // Tap before sizing the TX window (it may append INT trailer bytes).
  if (tap_ != nullptr) tap_->at_tx(pkt, start, port);
  free = start + sim::serialization_time(pkt.size(), config_.port_gbps);
  spans_.span(sim::SpanKind::kTx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable {
    const packet::PortId port = pkt.meta.egress_port;
    metrics_.tx_packets.add();
    metrics_.tx_bytes.add(pkt.size());
    if (first_tx_ == 0) first_tx_ = sim_->now();
    last_tx_ = sim_->now();
    --in_flight_[port];
    if (tx_handler_) tx_handler_(port, std::move(pkt));
    kick_port_egress(port);
  });
}

double AdcpSwitch::achieved_tx_gbps() const {
  if (last_tx_ <= first_tx_) return 0.0;
  return static_cast<double>(metrics_.tx_bytes.value()) * 8.0 * 1000.0 /
         static_cast<double>(last_tx_ - first_tx_);
}

}  // namespace adcp::core

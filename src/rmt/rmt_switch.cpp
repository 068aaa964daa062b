#include "rmt/rmt_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "telem/tap.hpp"

namespace adcp::rmt {

namespace {
/// Packets allowed between egress-pipe exit and TX completion per port —
/// a small egress FIFO so TX back-pressures the TM realistically.
constexpr std::uint32_t kMaxInFlightPerPort = 4;

/// Only INC packets are rewritten from the PHV; anything else is forwarded
/// byte-identical (the deparser emit program is INC-shaped).
bool is_inc(const packet::Phv& phv) {
  return phv.get_or(packet::fields::kUdpDst, 0) == packet::kIncUdpPort;
}
}  // namespace

RmtSwitch::RmtSwitch(sim::Simulator& sim, const RmtConfig& config, sim::Scope scope)
    : sim_(&sim),
      config_(config),
      scope_(sim::resolve_scope(scope, own_metrics_, "rmt")),
      metrics_(scope_),
      spans_(scope_.span_recorder()),
      pool_(4096, scope_.scope("pool")) {
  assert(config.port_count % config.pipeline_count == 0);
  pipeline::PipelineConfig pc;
  pc.stage_count = config.stages_per_pipeline;
  pc.clock_ghz = config.clock_ghz;
  pc.stage = config.stage;
  for (std::uint32_t i = 0; i < config.pipeline_count; ++i) {
    pc.name = "rmt-ingress-" + std::to_string(i);
    ingress_pipes_.emplace_back(pc);
    pc.name = "rmt-egress-" + std::to_string(i);
    egress_pipes_.emplace_back(pc);
  }
  tm::TmConfig tc;
  tc.outputs = config.port_count;
  tc.buffer_bytes = config.tm_buffer_bytes;
  tc.alpha = config.tm_alpha;
  tc.ecn_threshold_bytes = config.ecn_threshold_bytes;
  tc.track_watermark = config.tm_track_watermark;
  tm_.emplace(std::move(tc), scope_.scope("tm"));
  tm_->set_pool(&pool_);

  rx_free_.assign(config.port_count, 0);
  tx_free_.assign(config.port_count, 0);
  recirc_free_.assign(config.pipeline_count, 0);
  drain_pending_.assign(config.port_count, false);
  in_flight_.assign(config.port_count, 0);
}

void RmtSwitch::load_program(RmtProgram program) {
  parse_graph_ = program.shared_parse
                     ? std::move(program.shared_parse)
                     : std::make_shared<const packet::ParseGraph>(std::move(program.parse));
  parser_.emplace(parse_graph_.get());
  deparser_ = program.shared_deparse
                  ? std::move(program.shared_deparse)
                  : std::make_shared<const packet::Deparser>(std::move(program.deparse));
  for (std::uint32_t i = 0; i < config_.pipeline_count; ++i) {
    if (program.setup_ingress) program.setup_ingress(ingress_pipes_[i], i);
    if (program.setup_egress) program.setup_egress(egress_pipes_[i], i);
  }
  // Re-arm the fast path from scratch: load_program may be called again
  // over an already-programmed switch (ControlPlane::attach does), and any
  // previously memoized verdict belongs to the replaced program.
  contract_ = std::move(program.fastpath);
  fast_.reset();
  egress_site_ = {};
  if (config_.fastpath_entries > 0 && contract_.valid()) {
    fast_.emplace(config_.fastpath_entries);
  }
}

void RmtSwitch::set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports) {
  multicast_[group] = std::move(ports);
}

void RmtSwitch::inject(packet::PortId port, packet::Packet pkt) {
  assert(port < config_.port_count);
  assert(parser_ && "load_program() must be called before traffic");
  metrics_.rx_packets.add();
  metrics_.rx_bytes.add(pkt.size());
  pkt.meta.ingress_port = port;
  pkt.meta.arrival = sim_->now();

  // RX serialization at port speed; the parser runs at port speed too
  // (paper §3.3), so the packet is PHV-ready when its last bit lands.
  sim::Time& free = rx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), config_.port_gbps);
  spans_.span(sim::SpanKind::kRx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable { enter_ingress(std::move(pkt)); });
}

bool RmtSwitch::try_fast_ingress(packet::Packet& pkt) {
  fast_->sync(contract_);
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return false;
  if (w.ttl < 2) return false;  // the slow path owns the TTL-expiry drop
  if (pkt.meta.recirc_request) return false;
  const bool query =
      contract_.store != nullptr &&
      w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
  fastpath::FlowCache::Entry* e = fast_->probe(w, pkt.meta.ingress_port, query);
  if (e == nullptr) {
    if (config_.fastpath_miss_spans) {
      spans_.instant(sim::SpanKind::kFastpathMiss, pkt.meta.trace_id,
                     sim_->now(), pkt.meta.ingress_port);
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
  const std::uint32_t pipe = config_.pipeline_of_port(pkt.meta.ingress_port);
  const pipeline::Transit tr = ingress_pipes_[pipe].advance(
      sim_->now(), e->timing.cycles, e->timing.max_service,
      e->timing.stall_cycles);
  spans_.span(sim::SpanKind::kIngress, pkt.meta.trace_id, sim_->now(), tr.exit,
              pipe, pkt.meta.ingress_port);
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->wire = w;
  f->egress = egress;
  f->patch = patch;
  sim_->at(tr.exit, [this, f] { after_ingress_fast(f); });
  return true;
}

void RmtSwitch::after_ingress_fast(FastSlot* f) {
  packet::Packet out =
      fastpath::copy_patch(pool_, std::move(f->pkt), f->wire, f->patch);
  const packet::PortId egress = f->egress;
  fast_slots_.release(f);
  out.meta.egress_port = egress;
  const std::uint64_t trace_id = out.meta.trace_id;
  out.meta.trace_mark = sim_->now();  // TM residency span begins here
  if (tap_ != nullptr) {
    out.meta.set_telem_depth(tm_->output_packets(egress));
    if (!tm_->buffer().admits(egress, out.size())) {
      tap_->on_drop(out, sim::DropReason::kAdmission, sim_->now());
    }
  }
  if (!tm_->enqueue(egress, 0, std::move(out))) {
    spans_.instant(sim::SpanKind::kDrop, trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kAdmission), egress);
  } else {
    spans_.instant(sim::SpanKind::kTmEnqueue, trace_id, sim_->now(),
                   tm_->output_packets(egress), egress);
  }
  try_drain(egress);
}

bool RmtSwitch::try_fast_egress(packet::Packet& pkt, packet::PortId port) {
  if (pkt.meta.recirc_request) return false;
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return false;
  const std::uint32_t pipe = config_.pipeline_of_port(port);
  const pipeline::Transit tr = egress_pipes_[pipe].advance(
      sim_->now(), egress_site_.timing.cycles, egress_site_.timing.max_service,
      egress_site_.timing.stall_cycles);
  spans_.span(sim::SpanKind::kEgress, pkt.meta.trace_id, sim_->now(), tr.exit,
              pipe, port);
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->wire = w;
  f->port = port;
  sim_->at(tr.exit, [this, f] { after_egress_fast(f); });
  return true;
}

void RmtSwitch::after_egress_fast(FastSlot* f) {
  const packet::PortId port = f->port;
  packet::Packet out = fastpath::copy_patch(pool_, std::move(f->pkt), f->wire,
                                            fastpath::Patch::kPassthrough);
  fast_slots_.release(f);
  out.meta.egress_port = port;
  transmit(std::move(out));
}

void RmtSwitch::fill_fastpath(const TransitSlot* t, packet::PortId egress) {
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
    served_branch =
        t->pr.phv.get_or(packet::fields::kIncOpcode, 0) ==
        static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit);
  }
  if ((served_branch ? served : forward) != egress) return;
  fast_->fill(w, t->pkt.meta.ingress_port, query, forward, served,
              {t->tr.cycles, t->tr.max_service, t->tr.stall_cycles, 0});
}

void RmtSwitch::enter_ingress(packet::Packet pkt) {
  if (fast_ && try_fast_ingress(pkt)) return;
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
  t->pr.phv.set(packet::fields::kMetaRecircPass, pkt.meta.recirculations);

  const std::uint32_t pipe = config_.pipeline_of_port(pkt.meta.ingress_port);
  pipeline::Pipeline& ingress = ingress_pipes_[pipe];
  const pipeline::Transit tr = ingress.process(sim_->now(), t->pr.phv);
  spans_.span(sim::SpanKind::kIngress, pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
              pkt.meta.ingress_port);
  t->pkt = std::move(pkt);
  t->tr = tr;
  sim_->at(tr.exit, [this, t] { after_ingress(t); });
}

packet::Packet RmtSwitch::finalize(const packet::Phv& phv, packet::Packet original,
                                   std::size_t consumed) {
  if (!is_inc(phv)) return original;
  packet::Packet out = pool_.acquire();
  deparser_->deparse_into(phv, original, consumed, out);
  pool_.release(std::move(original));
  return out;
}

void RmtSwitch::after_ingress(TransitSlot* t) {
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
  const std::uint64_t egress = phv.get_or(packet::fields::kMetaEgressPort,
                                          packet::kInvalidPort);
  const bool recirc_flag = phv.get_or(packet::fields::kMetaRecirc, 0) != 0;
  // Memoize unicast forward verdicts while the original bytes are intact.
  if (fast_ && group == 0 && !recirc_flag && !t->pkt.meta.recirc_request &&
      egress < config_.port_count) {
    fill_fastpath(t, static_cast<packet::PortId>(egress));
  }

  // Deparsing preserves metadata (recirculation count included).
  packet::Packet out = finalize(phv, std::move(t->pkt), t->pr.consumed);
  out.meta.drop = false;
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
    out.meta.trace_mark = sim_->now();  // copies inherit it; read at dequeue
    const std::size_t admitted = tm_->enqueue_multicast(it->second, 0, out);
    spans_.instant(sim::SpanKind::kTmEnqueue, out.meta.trace_id, sim_->now(), admitted,
                   it->second.size());
    pool_.release(std::move(out));  // replicas were copies; retire the template
    for (const packet::PortId p : it->second) try_drain(p);
    return;
  }

  if (egress >= config_.port_count) {
    metrics_.no_route_drops.add();
    spans_.instant(sim::SpanKind::kDrop, out.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kNoRoute));
    if (tap_ != nullptr) tap_->on_drop(out, sim::DropReason::kNoRoute, sim_->now());
    pool_.release(std::move(out));
    return;
  }
  out.meta.egress_port = static_cast<packet::PortId>(egress);
  if (recirc_flag) out.meta.recirc_request = true;
  const std::uint64_t trace_id = out.meta.trace_id;
  out.meta.trace_mark = sim_->now();  // TM residency span begins here
  if (tap_ != nullptr) {
    out.meta.set_telem_depth(tm_->output_packets(static_cast<std::uint32_t>(egress)));
    if (!tm_->buffer().admits(static_cast<std::uint32_t>(egress), out.size())) {
      tap_->on_drop(out, sim::DropReason::kAdmission, sim_->now());
    }
  }
  if (!tm_->enqueue(static_cast<std::uint32_t>(egress), 0, std::move(out))) {
    spans_.instant(sim::SpanKind::kDrop, trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kAdmission), egress);
  } else {
    spans_.instant(sim::SpanKind::kTmEnqueue, trace_id, sim_->now(),
                   tm_->output_packets(static_cast<std::uint32_t>(egress)), egress);
  }
  try_drain(static_cast<packet::PortId>(egress));
}

void RmtSwitch::try_drain(packet::PortId port) {
  if (drain_pending_[port]) return;
  if (in_flight_[port] >= kMaxInFlightPerPort) return;
  if (tm_->output_packets(port) == 0) return;
  drain_pending_[port] = true;
  sim_->at(sim_->now(), [this, port] { drain(port); });
}

void RmtSwitch::drain(packet::PortId port) {
  drain_pending_[port] = false;
  if (in_flight_[port] >= kMaxInFlightPerPort) return;
  std::optional<packet::Packet> pkt = tm_->dequeue(port);
  if (!pkt) return;
  spans_.span(sim::SpanKind::kTmQueue, pkt->meta.trace_id, pkt->meta.trace_mark,
              sim_->now(), port);

  if (fast_ && egress_site_.valid && try_fast_egress(*pkt, port)) {
    // Keep the egress pipe fed, exactly as the slow path below does.
    if (tm_->output_packets(port) > 0) {
      drain_pending_[port] = true;
      pipeline::Pipeline& egress = egress_pipes_[config_.pipeline_of_port(port)];
      sim_->at(std::max(egress.next_free(), sim_->now()), [this, port] { drain(port); });
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
    try_drain(port);
    return;
  }
  t->pr.phv.set(packet::fields::kMetaEgressPort, port);
  t->pr.phv.set(packet::fields::kMetaRecircPass, pkt->meta.recirculations);

  const std::uint32_t pipe = config_.pipeline_of_port(port);
  pipeline::Pipeline& egress = egress_pipes_[pipe];
  const pipeline::Transit tr = egress.process(sim_->now(), t->pr.phv);
  // Egress stages carry no per-flow program under this contract; one
  // measured transit is the timing template for every later packet.
  if (fast_ && contract_.passthrough_edges && !egress_site_.valid) {
    egress_site_ = {true, {tr.cycles, tr.max_service, tr.stall_cycles, 0}};
  }
  spans_.span(sim::SpanKind::kEgress, pkt->meta.trace_id, sim_->now(), tr.exit, pipe, port);
  t->pkt = std::move(*pkt);
  t->port = port;
  sim_->at(tr.exit, [this, t] { after_egress(t); });

  // Keep the egress pipe fed: attempt the next dequeue when it can admit
  // another PHV.
  if (tm_->output_packets(port) > 0) {
    drain_pending_[port] = true;
    sim_->at(std::max(egress.next_free(), sim_->now()), [this, port] { drain(port); });
  }
}

void RmtSwitch::after_egress(TransitSlot* t) {
  const packet::PortId port = t->port;
  if (t->pr.phv.get_or(packet::fields::kMetaDrop, 0) != 0) {
    metrics_.program_drops.add();
    spans_.instant(sim::SpanKind::kDrop, t->pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kProgram));
    if (tap_ != nullptr) tap_->on_drop(t->pkt, sim::DropReason::kProgram, sim_->now());
    pool_.release(std::move(t->pkt));
    transit_.release(t);
    try_drain(port);
    return;
  }
  const bool recirc_requested = t->pkt.meta.recirc_request;
  packet::Packet out = finalize(t->pr.phv, std::move(t->pkt), t->pr.consumed);

  const bool recirc = recirc_requested ||
                      t->pr.phv.get_or(packet::fields::kMetaRecirc, 0) != 0;
  transit_.release(t);
  if (recirc) {
    recirculate(std::move(out), config_.pipeline_of_port(port));
    try_drain(port);
    return;
  }

  out.meta.egress_port = port;
  transmit(std::move(out));
}

void RmtSwitch::transmit(packet::Packet pkt) {
  // Only now does the packet occupy the small egress FIFO awaiting TX.
  // The port rides in the packet metadata: {this, Packet} fills the inline
  // callback capacity exactly, so one more captured word would heap-spill.
  const packet::PortId port = pkt.meta.egress_port;
  ++in_flight_[port];
  sim::Time& free = tx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  // The tap may append INT trailer bytes, so it must run before the TX
  // serialization window is sized — the telemetry byte tax is simulated.
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
    try_drain(port);
  });
}

void RmtSwitch::recirculate(packet::Packet pkt, std::uint32_t pipe) {
  pkt.meta.recirc_request = false;
  ++pkt.meta.recirculations;
  if (pkt.meta.recirculations > config_.max_recirculations) {
    metrics_.recirc_limit_drops.add();
    spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kRecircLimit));
    if (tap_ != nullptr) tap_->on_drop(pkt, sim::DropReason::kRecircLimit, sim_->now());
    pool_.release(std::move(pkt));
    return;
  }
  metrics_.recirculations.add();
  metrics_.recirc_bytes.add(pkt.size());

  // The recirculation port re-serializes the packet into the target
  // pipeline at recirc_gbps — this is the bandwidth tax of §1 issue 1.
  sim::Time& free = recirc_free_[pipe];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), config_.recirc_gbps);
  spans_.span(sim::SpanKind::kRecirc, pkt.meta.trace_id, start, free, pipe,
              pkt.meta.recirculations);
  pkt.meta.ingress_port = pipe * config_.ports_per_pipeline();
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable { enter_ingress(std::move(pkt)); });
}

double RmtSwitch::achieved_tx_gbps() const {
  if (last_tx_ <= first_tx_) return 0.0;
  return static_cast<double>(metrics_.tx_bytes.value()) * 8.0 * 1000.0 /
         static_cast<double>(last_tx_ - first_tx_);
}

}  // namespace adcp::rmt

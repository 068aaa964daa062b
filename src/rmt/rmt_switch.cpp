#include "rmt/rmt_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"

namespace adcp::rmt {

RmtSwitch::RmtSwitch(sim::Simulator& sim, const RmtConfig& config, sim::Scope scope)
    : Chassis(sim, scope, "rmt", config.port_count, config.port_gbps,
              config.fastpath_entries),
      config_(config),
      recirc_limit_drops_(scope_.counter("drops.recirc_limit")),
      recirculations_(scope_.counter("recirc.passes")),
      recirc_bytes_(scope_.counter("recirc.bytes")) {
  assert(config.port_count % config.pipeline_count == 0);
  pipeline::PipelineConfig pc;
  pc.stage_count = config.stages_per_pipeline;
  pc.clock_ghz = config.clock_ghz;
  pc.stage = config.stage;
  for (std::uint32_t i = 0; i < config.pipeline_count; ++i) {
    ingress_pipes_.emplace_back(pc);
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

  recirc_free_.assign(config.pipeline_count, 0);
  drain_pending_.assign(config.port_count, false);
}

void RmtSwitch::load_program(RmtProgram program) {
  install(program);
  for (std::uint32_t i = 0; i < config_.pipeline_count; ++i) {
    if (program.setup_ingress) program.setup_ingress(ingress_pipes_[i], i);
    if (program.setup_egress) program.setup_egress(egress_pipes_[i], i);
  }
}

void RmtSwitch::on_rx(packet::Packet pkt) {
  const std::uint32_t pipe = config_.pipeline_of_port(pkt.meta.ingress_port);
  pipeline::Pipeline& ingress = ingress_pipes_[pipe];
  if (FastSlot* f = probe(pkt)) {
    const pipeline::Transit tr = replay(ingress, f->timing);
    spans_.span(sim::SpanKind::kIngress, f->pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
                f->pkt.meta.ingress_port);
    sim_->at(tr.exit, [this, f] { forward(unpark(f)); });
    return;
  }
  TransitSlot* t = parse(std::move(pkt));
  if (t == nullptr) return;
  t->pr.phv.set(packet::fields::kMetaRecircPass, t->pkt.meta.recirculations);
  const pipeline::Transit tr = ingress.process(sim_->now(), t->pr.phv);
  spans_.span(sim::SpanKind::kIngress, t->pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
              t->pkt.meta.ingress_port);
  t->timing = chassis::timing_of(tr);
  sim_->at(tr.exit, [this, t] { after_ingress(t); });
}

void RmtSwitch::after_ingress(TransitSlot* t) {
  // A unicast recirculation verdict rides the packet to its egress pipe.
  const packet::Phv& phv = t->pr.phv;
  if (phv.get_or(packet::fields::kMetaRecirc, 0) != 0 &&
      phv.get_or(packet::fields::kMetaMulticastGroup, 0) == 0) {
    t->pkt.meta.recirc_request = true;
  }
  resolve(t);
}

void RmtSwitch::forward(packet::Packet pkt) {
  const packet::PortId egress = pkt.meta.egress_port;
  admit(*tm_, egress, std::move(pkt));
  try_drain(egress);
}

void RmtSwitch::fan_out(packet::Packet pkt, const std::vector<packet::PortId>& ports) {
  // Each replica passes TM admission on its own, so a refused replica is a
  // traced admission drop the tap sees, exactly like a refused unicast.
  for (const packet::PortId p : ports) {
    if (admit(*tm_, p, replica(pkt, p))) tm_->count_multicast_copy();
  }
  pool_.release(std::move(pkt));  // replicas were copies; retire the template
  for (const packet::PortId p : ports) try_drain(p);
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

  const std::uint32_t pipe = config_.pipeline_of_port(port);
  pipeline::Pipeline& egress = egress_pipes_[pipe];
  if (FastSlot* f = passthrough(*pkt, egress_site_, port)) {
    const pipeline::Transit tr = replay(egress, f->timing);
    spans_.span(sim::SpanKind::kEgress, f->pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
                port);
    sim_->at(tr.exit, [this, f] { transmit(unpark(f)); });
  } else if (TransitSlot* t = parse(std::move(*pkt))) {
    t->pr.phv.set(packet::fields::kMetaEgressPort, port);
    t->pr.phv.set(packet::fields::kMetaRecircPass, t->pkt.meta.recirculations);
    const pipeline::Transit tr = egress.process(sim_->now(), t->pr.phv);
    learn(egress_site_, tr);
    spans_.span(sim::SpanKind::kEgress, t->pkt.meta.trace_id, sim_->now(), tr.exit, pipe,
                port);
    t->lane = port;
    sim_->at(tr.exit, [this, t] { after_egress(t); });
  } else {
    try_drain(port);
    return;
  }

  // Keep the egress pipe fed: attempt the next dequeue when it can admit
  // another PHV.
  if (tm_->output_packets(port) > 0) {
    drain_pending_[port] = true;
    sim_->at(std::max(egress.next_free(), sim_->now()), [this, port] { drain(port); });
  }
}

void RmtSwitch::after_egress(TransitSlot* t) {
  const auto port = static_cast<packet::PortId>(t->lane);
  if (program_dropped(t)) {
    try_drain(port);
    return;
  }
  const bool recirc = t->pkt.meta.recirc_request ||
                      t->pr.phv.get_or(packet::fields::kMetaRecirc, 0) != 0;
  packet::Packet out = finalize(t);
  if (recirc) {
    recirculate(std::move(out), config_.pipeline_of_port(port));
    try_drain(port);
    return;
  }
  out.meta.egress_port = port;
  transmit(std::move(out));
}

void RmtSwitch::recirculate(packet::Packet pkt, std::uint32_t pipe) {
  pkt.meta.recirc_request = false;
  ++pkt.meta.recirculations;
  if (pkt.meta.recirculations > config_.max_recirculations) {
    drop(std::move(pkt), sim::DropReason::kRecircLimit, recirc_limit_drops_);
    return;
  }
  recirculations_.add();
  recirc_bytes_.add(pkt.size());

  // The recirculation port re-serializes the packet into the target
  // pipeline at recirc_gbps — this is the bandwidth tax of §1 issue 1.
  sim::Time& free = recirc_free_[pipe];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), config_.recirc_gbps);
  spans_.span(sim::SpanKind::kRecirc, pkt.meta.trace_id, start, free, pipe,
              pkt.meta.recirculations);
  pkt.meta.ingress_port = pipe * config_.ports_per_pipeline();
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable { on_rx(std::move(pkt)); });
}

}  // namespace adcp::rmt

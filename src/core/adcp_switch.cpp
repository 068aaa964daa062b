#include "core/adcp_switch.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "tm/placement.hpp"

namespace adcp::core {

AdcpSwitch::AdcpSwitch(sim::Simulator& sim, const AdcpConfig& config, sim::Scope scope)
    : Chassis(sim, scope, "adcp", config.port_count, config.port_gbps,
              config.fastpath_entries),
      config_(config) {
  pipeline::PipelineConfig pc;
  pc.stage_count = config.edge_stages;
  pc.clock_ghz = config.edge_clock_ghz;
  pc.stage = config.edge_stage;
  for (std::uint32_t i = 0; i < config.edge_pipeline_count(); ++i) {
    ingress_pipes_.emplace_back(pc);
    egress_pipes_.emplace_back(pc);
  }
  pipeline::PipelineConfig cc;
  cc.stage_count = config.central_stages;
  cc.clock_ghz = config.central_clock_ghz;
  cc.stage = config.central_stage;
  for (std::uint32_t i = 0; i < config.central_pipeline_count; ++i) {
    central_pipes_.emplace_back(cc);
  }

  rr_demux_.assign(config.port_count, 0);
  central_pending_.assign(config.central_pipeline_count, false);
  egress_pending_.assign(config.edge_pipeline_count(), false);
}

void AdcpSwitch::load_program(AdcpProgram program) {
  assert(program.placement && "AdcpProgram::placement is mandatory (§3.1)");
  install(program);
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
}

void AdcpSwitch::on_rx(packet::Packet pkt) {
  // RX + parse happen at port speed (§3.3: "parsing still needs to be done
  // at port speed"); only then is the PHV handed to a slower edge pipeline.
  // The demux is pure, and one port's RX completions keep inject order, so
  // the round-robin sequence is the arrival sequence.
  const packet::PortId port = pkt.meta.ingress_port;
  std::uint32_t sub = 0;
  if (demux_) {
    sub = demux_(pkt) % config_.demux_factor;
  } else {
    sub = rr_demux_[port];
    rr_demux_[port] = (sub + 1) % config_.demux_factor;
  }
  const std::uint32_t edge_pipe = config_.edge_pipe_index(port, sub);
  pipeline::Pipeline& ingress = ingress_pipes_[edge_pipe];
  if (FastSlot* f = passthrough(pkt, ingress_site_, pkt.meta.egress_port)) {
    const pipeline::Transit tr = replay(ingress, f->timing);
    spans_.span(sim::SpanKind::kIngress, f->pkt.meta.trace_id, sim_->now(), tr.exit,
                edge_pipe);
    sim_->at(tr.exit, [this, f] { enqueue_central(unpark(f)); });
    return;
  }
  TransitSlot* t = parse(std::move(pkt));
  if (t == nullptr) return;
  const pipeline::Transit tr = ingress.process(sim_->now(), t->pr.phv);
  learn(ingress_site_, tr);
  spans_.span(sim::SpanKind::kIngress, t->pkt.meta.trace_id, sim_->now(), tr.exit, edge_pipe);
  sim_->at(tr.exit, [this, t] { after_ingress(t); });
}

void AdcpSwitch::after_ingress(TransitSlot* t) {
  if (program_dropped(t)) return;
  enqueue_central(finalize(t));
}

void AdcpSwitch::enqueue_central(packet::Packet pkt) {
  // TM1: application-defined placement over the global partitioned area.
  const std::uint32_t cp = placement_(pkt) % config_.central_pipeline_count;
  admit(*tm1_, cp, std::move(pkt), /*stamp_depth=*/false);
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

  // The central pipeline is ADCP's verdict site (the fast path probes here).
  pipeline::Pipeline& central = central_pipes_[cp];
  if (FastSlot* f = probe(*pkt)) {
    const pipeline::Transit tr = replay(central, f->timing);
    spans_.span(sim::SpanKind::kCentral, f->pkt.meta.trace_id, sim_->now(), tr.exit, cp);
    sim_->at(tr.exit, [this, f] { forward(unpark(f)); });
  } else if (TransitSlot* t = parse(std::move(*pkt))) {
    t->pr.phv.set(packet::fields::kMetaCentralPipe, cp);
    const pipeline::Transit tr = central.process(sim_->now(), t->pr.phv);
    spans_.span(sim::SpanKind::kCentral, t->pkt.meta.trace_id, sim_->now(), tr.exit, cp);
    t->timing = chassis::timing_of(tr);
    sim_->at(tr.exit, [this, t] { resolve(t); });
  } else {
    try_drain_central(cp);
    return;
  }

  if (tm1_->output_packets(cp) > 0) {
    central_pending_[cp] = true;
    sim_->at(std::max(central.next_free(), sim_->now()), [this, cp] { drain_central(cp); });
  }
}

void AdcpSwitch::forward(packet::Packet pkt) {
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
  admit(*tm2_, edge_pipe, std::move(pkt));
  try_drain_egress(edge_pipe);
}

void AdcpSwitch::kick_port_egress(packet::PortId port) {
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

  pipeline::Pipeline& egress = egress_pipes_[edge_pipe];
  if (FastSlot* f = passthrough(*pkt, egress_site_, pkt->meta.egress_port)) {
    const pipeline::Transit tr = replay(egress, f->timing);
    spans_.span(sim::SpanKind::kEgress, f->pkt.meta.trace_id, sim_->now(), tr.exit,
                edge_pipe, port);
    sim_->at(tr.exit, [this, f] { transmit(unpark(f)); });
  } else if (TransitSlot* t = parse(std::move(*pkt))) {
    t->pr.phv.set(packet::fields::kMetaEgressPort, t->pkt.meta.egress_port);
    const pipeline::Transit tr = egress.process(sim_->now(), t->pr.phv);
    learn(egress_site_, tr);
    spans_.span(sim::SpanKind::kEgress, t->pkt.meta.trace_id, sim_->now(), tr.exit,
                edge_pipe, port);
    t->lane = edge_pipe;
    sim_->at(tr.exit, [this, t] { after_egress(t); });
  } else {
    try_drain_egress(edge_pipe);
    return;
  }

  if (tm2_->output_packets(edge_pipe) > 0) {
    egress_pending_[edge_pipe] = true;
    sim_->at(std::max(egress.next_free(), sim_->now()),
             [this, edge_pipe] { drain_egress(edge_pipe); });
  }
}

void AdcpSwitch::after_egress(TransitSlot* t) {
  // m:1 mux back onto the port: TX serializes at full port rate.
  const packet::PortId port = config_.port_of_edge_pipe(t->lane);
  if (program_dropped(t)) {
    kick_port_egress(port);
    return;
  }
  packet::Packet out = finalize(t);
  out.meta.egress_port = port;
  transmit(std::move(out));
}

}  // namespace adcp::core

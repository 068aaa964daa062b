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
  egress_.tm.emplace(std::move(tc), scope_.scope("tm"));
  egress_.tm->set_pool(&pool_);
  egress_.pending.assign(config.port_count, false);
  egress_.per_port = 1;

  recirc_free_.assign(config.pipeline_count, 0);
}

void RmtSwitch::load_program(RmtProgram program) {
  install(program);
  for (std::uint32_t i = 0; i < config_.pipeline_count; ++i) {
    if (program.setup_ingress) program.setup_ingress(ingress_pipes_[i], i);
    if (program.setup_egress) program.setup_egress(egress_pipes_[i], i);
  }
}

void RmtSwitch::on_rx(packet::Packet pkt) {
  const packet::PortId port = pkt.meta.ingress_port;
  const std::uint32_t pipe = config_.pipeline_of_port(port);
  enter(
      ingress_pipes_[pipe], nullptr, sim::SpanKind::kIngress, pipe, port, std::move(pkt),
      [](packet::Phv& phv, const packet::Packet& p) {
        phv.set(packet::fields::kMetaRecircPass, p.meta.recirculations);
      },
      [this](packet::Packet p) { forward(std::move(p)); },
      [this](TransitSlot* t) { after_ingress(t); });
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
  admit(*egress_.tm, egress, std::move(pkt));
  kick(egress_, egress);
}

void RmtSwitch::fan_out(packet::Packet pkt, const std::vector<packet::PortId>& ports) {
  // Each replica passes TM admission on its own, so a refused replica is a
  // traced admission drop the tap sees, exactly like a refused unicast.
  for (const packet::PortId p : ports) {
    if (admit(*egress_.tm, p, replica(pkt, p))) egress_.tm->count_multicast_copy();
  }
  pool_.release(std::move(pkt));  // replicas were copies; retire the template
  for (const packet::PortId p : ports) kick(egress_, p);
}

const pipeline::Pipeline* RmtSwitch::start(Feed& /*feed*/, std::uint32_t port,
                                           packet::Packet pkt) {
  const std::uint32_t pipe = config_.pipeline_of_port(port);
  pipeline::Pipeline& egress = egress_pipes_[pipe];
  const bool started = enter(
      egress, &egress_site_, sim::SpanKind::kEgress, pipe, port, std::move(pkt),
      [port](packet::Phv& phv, const packet::Packet& p) {
        phv.set(packet::fields::kMetaEgressPort, port);
        phv.set(packet::fields::kMetaRecircPass, p.meta.recirculations);
      },
      [this](packet::Packet p) { transmit(std::move(p)); },
      [this](TransitSlot* t) { after_egress(t); });
  return started ? &egress : nullptr;
}

void RmtSwitch::after_egress(TransitSlot* t) {
  const packet::PortId port = t->pkt.meta.egress_port;
  if (program_dropped(t)) {
    kick(egress_, port);
    return;
  }
  const bool recirc = t->pkt.meta.recirc_request ||
                      t->pr.phv.get_or(packet::fields::kMetaRecirc, 0) != 0;
  packet::Packet out = finalize(t);
  if (recirc) {
    recirculate(std::move(out), config_.pipeline_of_port(port));
    kick(egress_, port);
    return;
  }
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

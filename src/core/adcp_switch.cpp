#include "core/adcp_switch.hpp"

#include <cassert>
#include <utility>

#include "packet/fields.hpp"
#include "sim/random.hpp"

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
  central_.pending.assign(config.central_pipeline_count, false);
  egress_.pending.assign(config.edge_pipeline_count(), false);
  egress_.per_port = config.demux_factor;
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
  central_.tm.emplace(std::move(t1), scope_.scope("tm1"));

  tm::TmConfig t2;
  t2.outputs = config_.edge_pipeline_count();
  t2.buffer_bytes = config_.tm2_buffer_bytes;
  t2.alpha = config_.tm2_alpha;
  t2.ecn_threshold_bytes = config_.ecn_threshold_bytes;
  t2.make_scheduler = std::move(program.tm2_scheduler);
  t2.track_watermark = config_.tm_track_watermark;
  egress_.tm.emplace(std::move(t2), scope_.scope("tm2"));
  central_.tm->set_pool(&pool_);
  egress_.tm->set_pool(&pool_);
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
  enter(
      ingress_pipes_[edge_pipe], &ingress_site_, sim::SpanKind::kIngress, edge_pipe, 0,
      std::move(pkt), [](packet::Phv&, const packet::Packet&) {},
      [this](packet::Packet p) { enqueue_central(std::move(p)); },
      [this](TransitSlot* t) { after_ingress(t); });
}

void AdcpSwitch::after_ingress(TransitSlot* t) {
  if (program_dropped(t)) return;
  enqueue_central(finalize(t));
}

void AdcpSwitch::enqueue_central(packet::Packet pkt) {
  // TM1: application-defined placement over the global partitioned area.
  const std::uint32_t cp = placement_(pkt) % config_.central_pipeline_count;
  admit(*central_.tm, cp, std::move(pkt), /*stamp_depth=*/false);
  kick(central_, cp);
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
    sub = static_cast<std::uint32_t>(sim::mix64(pkt.meta.flow_id) % config_.demux_factor);
  }
  const std::uint32_t edge_pipe = config_.edge_pipe_index(port, sub);
  admit(*egress_.tm, edge_pipe, std::move(pkt));
  kick(egress_, edge_pipe);
}

const pipeline::Pipeline* AdcpSwitch::start(Feed& feed, std::uint32_t out,
                                            packet::Packet pkt) {
  if (&feed == &central_) {
    // The central pipeline is ADCP's verdict site (the fast path probes here).
    pipeline::Pipeline& central = central_pipes_[out];
    const bool started = enter(
        central, nullptr, sim::SpanKind::kCentral, out, 0, std::move(pkt),
        [out](packet::Phv& phv, const packet::Packet&) {
          phv.set(packet::fields::kMetaCentralPipe, out);
        },
        [this](packet::Packet p) { forward(std::move(p)); },
        [this](TransitSlot* t) { resolve(t); });
    return started ? &central : nullptr;
  }
  pipeline::Pipeline& egress = egress_pipes_[out];
  const bool started = enter(
      egress, &egress_site_, sim::SpanKind::kEgress, out, config_.port_of_edge_pipe(out),
      std::move(pkt),
      [](packet::Phv& phv, const packet::Packet& p) {
        phv.set(packet::fields::kMetaEgressPort, p.meta.egress_port);
      },
      [this](packet::Packet p) { transmit(std::move(p)); },
      [this](TransitSlot* t) { after_egress(t); });
  return started ? &egress : nullptr;
}

void AdcpSwitch::after_egress(TransitSlot* t) {
  // m:1 mux back onto the port: TX serializes at full port rate.
  const packet::PortId port = t->pkt.meta.egress_port;
  if (program_dropped(t)) {
    kick_port(port);
    return;
  }
  transmit(finalize(t));
}

}  // namespace adcp::core

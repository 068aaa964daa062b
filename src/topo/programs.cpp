#include "topo/programs.hpp"

#include <memory>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "rtc/programs.hpp"
#include "tm/placement.hpp"

namespace adcp::topo {

namespace {

using packet::Phv;
using packet::fields::kIncFlowId;
using packet::fields::kIncOpcode;
using packet::fields::kIpDst;
using packet::fields::kIpSrc;
using packet::fields::kIpTtl;
using packet::fields::kMetaDrop;
using packet::fields::kMetaEgressPort;
using packet::fields::kMetaFlowHash;
using packet::fields::kMetaRecirc;
using packet::fields::kMetaRecircPass;
using packet::fields::kUdpDst;
using packet::fields::kUdpSrc;

/// Only data INC packets feed the heavy-hitter sketch — the same opcode
/// window the telemetry taps stamp, so the sketch's ground truth (the
/// taps' flow ledgers) counts exactly the sketched population.
bool sketchable(const Phv& phv) {
  const std::uint64_t op = phv.get_or(kIncOpcode, 0);
  return op != 0 && op < static_cast<std::uint64_t>(packet::IncOpcode::kCtrlUpdate);
}

}  // namespace

void route_and_decrement(Phv& phv, const ForwardingTable& fib, bool decrement) {
  if (decrement) {
    const std::uint64_t ttl = phv.get_or(kIpTtl, 0);
    if (ttl <= 1) {
      phv.set(kMetaDrop, 1);
      return;
    }
    phv.set(kIpTtl, ttl - 1);
  }
  std::uint64_t flow_hash = phv.get_or(kMetaFlowHash, 0);
  const packet::PortId port = fib.lookup_cached(
      static_cast<std::uint32_t>(phv.get_or(kIpDst, 0)),
      static_cast<std::uint32_t>(phv.get_or(kIpSrc, 0)),
      static_cast<std::uint16_t>(phv.get_or(kUdpSrc, 0)),
      static_cast<std::uint16_t>(phv.get_or(kUdpDst, 0)), flow_hash);
  if (flow_hash != 0) phv.set(kMetaFlowHash, flow_hash);
  if (port == ForwardingTable::kNoRoute) {
    phv.set(kMetaDrop, 1);
    return;
  }
  phv.set(kMetaEgressPort, port);
}

fastpath::FastpathContract routing_contract(
    const std::shared_ptr<const ForwardingTable>& fib,
    std::size_t parse_max_elems) {
  fastpath::FastpathContract c;
  c.route = [fib](std::uint32_t ip_dst, std::uint32_t ip_src,
                  std::uint16_t udp_src, std::uint16_t udp_dst) {
    return fib->lookup(ip_dst, ip_src, udp_src, udp_dst);
  };
  c.fib_version = fib->version_ptr();
  c.passthrough_edges = true;
  c.parse_max_elems = parse_max_elems;
  return c;
}

rmt::RmtProgram rmt_routing_program(const rmt::RmtConfig& /*config*/,
                                    std::shared_ptr<const ForwardingTable> fib,
                                    telem::HeavyHitterSketch* sketch) {
  rmt::RmtProgram prog;
  if (sketch == nullptr) {
    prog.setup_ingress = [fib](pipeline::Pipeline& pipe, std::uint32_t) {
      pipe.set_stage_program(0, [fib](Phv& phv, pipeline::Stage&) -> std::uint64_t {
        route_and_decrement(phv, *fib);
        return 1;
      });
    };
    prog.fastpath = routing_contract(fib, rmt::kRmtParseLanes);
    return prog;
  }
  // PRECISION on RMT (DESIGN.md §14): pass 0 can only touch an entry its
  // flow owns; a lottery win marks the packet for recirculation and the
  // recirculated pass performs the claim. The lottery sequence counter is
  // shared across the switch's pipelines (one stage memory), exactly like
  // the sketch itself.
  auto seq = std::make_shared<std::uint64_t>(0);
  prog.setup_ingress = [fib, sketch, seq](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [fib, sketch, seq](Phv& phv,
                                                 pipeline::Stage&) -> std::uint64_t {
      const bool recirc_pass = phv.get_or(kMetaRecircPass, 0) != 0;
      route_and_decrement(phv, *fib, /*decrement=*/!recirc_pass);
      if (phv.get_or(kMetaDrop, 0) != 0 || !sketchable(phv)) return 1;
      const std::uint64_t key = phv.get_or(kIncFlowId, 0);
      if (recirc_pass) {
        sketch->claim(key);  // counts as an increment if the flow self-raced
        return 2;
      }
      const telem::HeavyHitterSketch::Probe p = sketch->probe(key);
      if (p.owner) {
        sketch->increment(key);
      } else if (sketch->should_claim(key, (*seq)++)) {
        phv.set(kMetaRecirc, 1);
      }
      return 2;
    });
  };
  // No fastpath contract: the verdict cost depends on sketch state.
  return prog;
}

core::AdcpProgram adcp_routing_program(const core::AdcpConfig& config,
                                       std::shared_ptr<const ForwardingTable> fib,
                                       telem::HeavyHitterSketch* sketch) {
  core::AdcpProgram prog;
  prog.placement = tm::placement::by_flow_hash(config.central_pipeline_count);
  if (sketch == nullptr) {
    prog.setup_central = [fib](pipeline::Pipeline& pipe, std::uint32_t) {
      pipe.set_stage_program(0, [fib](Phv& phv, pipeline::Stage&) -> std::uint64_t {
        route_and_decrement(phv, *fib);
        return 1;
      });
    };
    prog.fastpath = routing_contract(fib, core::kAdcpParseLanes);
    return prog;
  }
  // Single-pass update: the central stage's array engine probes the d
  // candidate rows and writes the winner in one transit (charged as two
  // extra cycles on top of routing).
  auto seq = std::make_shared<std::uint64_t>(0);
  prog.setup_central = [fib, sketch, seq](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [fib, sketch, seq](Phv& phv,
                                                 pipeline::Stage&) -> std::uint64_t {
      route_and_decrement(phv, *fib);
      if (phv.get_or(kMetaDrop, 0) != 0 || !sketchable(phv)) return 1;
      sketch->update(phv.get_or(kIncFlowId, 0), (*seq)++);
      return 3;
    });
  };
  return prog;
}

rtc::RtcProgram rtc_routing_program(const rtc::RtcConfig& /*config*/,
                                    std::shared_ptr<const ForwardingTable> fib,
                                    telem::HeavyHitterSketch* sketch) {
  rtc::RtcProgram prog;
  if (sketch == nullptr) {
    prog.run = [fib](Phv& phv, rtc::SharedState&, const rtc::RtcConfig& cfg) -> std::uint64_t {
      route_and_decrement(phv, *fib);
      return rtc::kForwardBaseCycles + cfg.memory_access_cycles;  // one FIB access
    };
    prog.fastpath = routing_contract(fib, rtc::kRtcParseLanes);
    return prog;
  }
  // Shared-memory single-pass update: probe + write cost two more accesses.
  auto seq = std::make_shared<std::uint64_t>(0);
  prog.run = [fib, sketch, seq](Phv& phv, rtc::SharedState&,
                                const rtc::RtcConfig& cfg) -> std::uint64_t {
    route_and_decrement(phv, *fib);
    std::uint64_t cycles = rtc::kForwardBaseCycles + cfg.memory_access_cycles;
    if (phv.get_or(kMetaDrop, 0) == 0 && sketchable(phv)) {
      sketch->update(phv.get_or(kIncFlowId, 0), (*seq)++);
      cycles += 2 * cfg.memory_access_cycles;
    }
    return cycles;
  };
  return prog;
}

}  // namespace adcp::topo

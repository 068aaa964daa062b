// Single-layer replays: the per-packet public functions of packet, tm and
// the switch models, run on a pass's own packets outside the fabric, so a
// layer's cost per packet reads without the event kernel around it.
#include <algorithm>
#include <limits>
#include <string>

#include "bench.hpp"
#include "core/adcp_switch.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "rmt/rmt_switch.hpp"
#include "tm/traffic_manager.hpp"
#include "topo/programs.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 5;

/// Runs `body` kReps times under `layer` and returns the fastest ns/packet.
template <typename F>
double fastest_ns(LayerClock& clock, Layer layer, std::size_t packets, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t t0 = clock.now();
    body();
    const std::uint64_t t1 = clock.now();
    clock.add(layer, t0, t1);
    best = std::min(best, static_cast<double>(t1 - t0) / static_cast<double>(packets));
  }
  return best;
}

/// Forwards `pkts` through a standalone switch built from the fabric's own
/// template and FIB for switch 0, injected on port 0 at line rate. Every
/// packet must leave the switch.
template <typename Switch, typename Config, typename MakeProgram>
double forward_ns(LayerClock& clock, Layer layer, const Config& cfg, MakeProgram make_program,
                  const std::vector<packet::Packet>& pkts, std::vector<std::string>& errors) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Simulator s;
    Switch sw(s, cfg);
    sw.load_program(make_program());
    std::uint64_t sent = 0;
    sw.set_tx_handler([&sent](packet::PortId, packet::Packet) { ++sent; });
    sim::Time at = 0;
    for (const packet::Packet& pkt : pkts) {
      s.at(at, [&sw, pkt]() mutable { sw.inject(0, std::move(pkt)); });
      at += sim::serialization_time(pkt.size(), sw.port_gbps());
    }
    const std::uint64_t t0 = clock.now();
    s.run();
    const std::uint64_t t1 = clock.now();
    clock.add(layer, t0, t1);
    if (sent != pkts.size()) {
      errors.push_back(std::string(layer_name(layer)) + " replay forwarded " +
                       std::to_string(sent) + " of " + std::to_string(pkts.size()) + " packets");
      return 0.0;
    }
    best = std::min(best, static_cast<double>(t1 - t0) / static_cast<double>(pkts.size()));
  }
  return best;
}

}  // namespace

Replay replay_layers(topo::Network& net, const std::vector<packet::IncPacketSpec>& specs,
                     LayerClock& clock, std::vector<std::string>& errors) {
  Replay out;
  const topo::SwitchKind kind = net.kind_of(0);
  const auto tmpl = net.template_of(kind, net.device(0).port_count());
  if (specs.empty() || tmpl == nullptr) {
    errors.push_back("replay: no packets or no switch template");
    return out;
  }
  std::vector<packet::Packet> pkts;
  pkts.reserve(specs.size());
  for (const packet::IncPacketSpec& spec : specs) pkts.push_back(packet::make_inc_packet(spec));

  const packet::Parser parser(tmpl->parse.get());
  packet::ParseResult pr;
  packet::Packet deparsed;
  std::uint64_t bytes = 0;
  out.parse_deparse_ns = fastest_ns(clock, kPacket, pkts.size(), [&] {
    for (const packet::Packet& pkt : pkts) {
      parser.parse_into(pkt, pr);
      tmpl->deparse->deparse_into(pr.phv, pkt, pr.consumed, deparsed);
      bytes += deparsed.size();
    }
  });

  // Batches of 64 enqueues across 16 outputs, then drain: the queues hold
  // packets, as in a fabric TM, and nothing is allocated while timed.
  adcp::tm::TmConfig tcfg;
  tcfg.outputs = 16;
  tcfg.buffer_bytes = 1ull << 30;
  adcp::tm::TrafficManager tm(tcfg);
  std::vector<packet::Packet> work = pkts;
  std::uint64_t dequeued = 0;
  out.enq_deq_ns = fastest_ns(clock, kTm, work.size(), [&] {
    constexpr std::size_t kBatch = 64;
    for (std::size_t b = 0; b < work.size(); b += kBatch) {
      const std::size_t e = std::min(work.size(), b + kBatch);
      for (std::size_t i = b; i < e; ++i) {
        tm.enqueue(static_cast<std::uint32_t>(i % tcfg.outputs), 0, std::move(work[i]));
      }
      for (std::size_t i = b; i < e; ++i) {
        if (auto got = tm.dequeue(static_cast<std::uint32_t>(i % tcfg.outputs))) {
          ++dequeued;
          work[i] = std::move(*got);
        }
      }
    }
  });
  if (dequeued != work.size() * kReps) {
    errors.push_back("tm replay dequeued " + std::to_string(dequeued) + " of " +
                     std::to_string(work.size() * kReps) + " packets");
  }

  const std::shared_ptr<const topo::ForwardingTable> fib = net.fib_of(0);
  const auto shared = [&tmpl](auto prog) {
    prog.shared_parse = tmpl->parse;
    prog.shared_deparse = tmpl->deparse;
    return prog;
  };
  if (kind == topo::SwitchKind::kRmt) {
    out.fwd_ns = forward_ns<adcp::rmt::RmtSwitch>(
        clock, kRmt, tmpl->rmt, [&] { return shared(topo::rmt_routing_program(tmpl->rmt, fib)); },
        pkts, errors);
  } else if (kind == topo::SwitchKind::kAdcp) {
    out.fwd_ns = forward_ns<adcp::core::AdcpSwitch>(
        clock, kCore, tmpl->adcp,
        [&] { return shared(topo::adcp_routing_program(tmpl->adcp, fib)); }, pkts, errors);
  }
  // Also keeps the parse/deparse loop observable to the optimizer.
  if (bytes == 0) errors.push_back("parse/deparse replay produced no bytes");
  return out;
}

}  // namespace perfbench

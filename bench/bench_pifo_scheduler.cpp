// E11 — §5 extension: "intriguing opportunities can be unleashed when
// making the scheduler programmable, especially in an architecture like
// the one proposed here that heavily relies on multiple shared memory
// schedulers."
//
// Scenario: an elephant coflow and a mouse coflow contend for ONE egress
// port. TM2 disciplines compared: FIFO vs PIFO ranked smallest-coflow-
// first (SEBF pushed into the switch). Reported: each coflow's completion
// time. The mouse should finish almost immediately under PIFO while the
// elephant barely notices — the classic coflow-scheduling win, now inside
// the ADCP traffic manager.
//
// The bench asserts its headline and exits 1 otherwise (reason on stderr):
// the mouse CCT reads 10.8 us under FIFO and 3.3 us under PIFO, and the
// elephant's 15.3 us under both.
#include <cstdio>
#include <map>
#include <memory>

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "sim/simulator.hpp"
#include "tm/pifo.hpp"

namespace {

using namespace adcp;

constexpr std::uint16_t kElephant = 1;
constexpr std::uint16_t kMouse = 2;
constexpr std::uint32_t kElephantPackets = 600;
constexpr std::uint32_t kMousePackets = 20;
constexpr std::uint32_t kSink = 7;

struct Result {
  double elephant_cct_us = 0.0;
  double mouse_cct_us = 0.0;
};

Result run(bool use_pifo) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  cfg.demux_factor = 1;  // single egress pipe at the contended port
  cfg.central_pipeline_count = 2;
  core::AdcpSwitch sw(sim, cfg);

  core::AdcpProgram prog = core::forward_program(cfg);
  if (use_pifo) {
    auto sizes = std::make_shared<std::map<std::uint64_t, std::uint64_t>>();
    (*sizes)[kElephant] = kElephantPackets;  // control plane knows coflow sizes
    (*sizes)[kMouse] = kMousePackets;
    prog.tm2_scheduler = [sizes](std::uint32_t) {
      return std::make_unique<tm::PifoScheduler>(tm::ranks::by_coflow_bytes(sizes));
    };
  }
  sw.load_program(std::move(prog));

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
  sim::Time elephant_done = 0;
  sim::Time mouse_done = 0;
  std::uint32_t elephant_rx = 0;
  std::uint32_t mouse_rx = 0;
  fabric.host(kSink).set_rx_callback([&](net::Host& host, const packet::Packet& pkt) {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc)) return;
    if (inc.coflow_id == kElephant && ++elephant_rx == kElephantPackets) {
      elephant_done = host.last_rx_time();
    }
    if (inc.coflow_id == kMouse && ++mouse_rx == kMousePackets) {
      mouse_done = host.last_rx_time();
    }
  });

  // 4:1 incast: four elephant sources flood the sink port so its TM2
  // queue builds; the mouse arrives shortly after and would sit behind the
  // backlog under FIFO.
  for (std::uint32_t src = 0; src < 4; ++src) {
    for (std::uint32_t i = 0; i < kElephantPackets / 4; ++i) {
      packet::IncPacketSpec spec;
      spec.ip_dst = 0x0a000000 | kSink;
      spec.inc.coflow_id = kElephant;
      spec.inc.flow_id = 10 + src;
      spec.inc.seq = src * (kElephantPackets / 4) + i;
      spec.inc.elements.push_back({i, 0});
      spec.pad_to = 300;
      fabric.host(src).send_inc(spec);
    }
  }
  for (std::uint32_t i = 0; i < kMousePackets; ++i) {
    packet::IncPacketSpec spec;
    spec.ip_dst = 0x0a000000 | kSink;
    spec.inc.coflow_id = kMouse;
    spec.inc.flow_id = 20;
    spec.inc.seq = i;
    spec.inc.elements.push_back({i, 0});
    spec.pad_to = 300;
    fabric.host(5).send_inc(spec, 2 * sim::kMicrosecond);
  }
  sim.run();

  Result r;
  r.elephant_cct_us = static_cast<double>(elephant_done) / sim::kMicrosecond;
  r.mouse_cct_us = static_cast<double>(mouse_done) / sim::kMicrosecond;
  return r;
}

}  // namespace

int main() {
  std::printf(
      "§5 extension: programmable scheduling in TM2 (coflow-aware PIFO)\n"
      "(elephant %u pkts vs mouse %u pkts contending for one port)\n\n",
      kElephantPackets, kMousePackets);
  std::printf("%-18s %-20s %-20s\n", "TM2 discipline", "elephant CCT (us)",
              "mouse CCT (us)");
  const Result fifo = run(false);
  const Result pifo = run(true);
  std::printf("%-18s %-20.1f %-20.1f\n", "FIFO", fifo.elephant_cct_us, fifo.mouse_cct_us);
  std::printf("%-18s %-20.1f %-20.1f\n", "PIFO (SEBF rank)", pifo.elephant_cct_us,
              pifo.mouse_cct_us);
  sim::MetricRegistry report;
  report.gauge("fifo.elephant_cct_us").set(fifo.elephant_cct_us);
  report.gauge("fifo.mouse_cct_us").set(fifo.mouse_cct_us);
  report.gauge("pifo.elephant_cct_us").set(pifo.elephant_cct_us);
  report.gauge("pifo.mouse_cct_us").set(pifo.mouse_cct_us);
  report.gauge("pifo.mouse_speedup")
      .set(pifo.mouse_cct_us > 0 ? fifo.mouse_cct_us / pifo.mouse_cct_us : 0.0);
  std::printf(
      "\nExpected shape: PIFO slashes the mouse's completion time (%.1fx here)\n"
      "while the elephant's barely moves — smallest-coflow-first inside the\n"
      "switch, with no host cooperation.\n",
      pifo.mouse_cct_us > 0 ? fifo.mouse_cct_us / pifo.mouse_cct_us : 0.0);
  bool ok = bench::reads("FIFO mouse CCT (us)", "%.1f", fifo.mouse_cct_us, "10.8");
  ok &= bench::reads("PIFO mouse CCT (us)", "%.1f", pifo.mouse_cct_us, "3.3");
  ok &= bench::reads("FIFO elephant CCT (us)", "%.1f", fifo.elephant_cct_us, "15.3");
  ok &= bench::reads("PIFO elephant CCT (us)", "%.1f", pifo.elephant_cct_us, "15.3");
  const bool wrote = bench::write_report(report, "pifo_scheduler");
  return ok && wrote ? 0 : 1;
}

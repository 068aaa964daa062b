// E2 — Reproduces paper Table 3: "Port demultiplexing examples".
//
// Part 1 prints the table from the ScalingModel. Part 2 validates in the
// simulator that an ADCP switch whose edge pipelines run at the table's
// LOW clock (0.60 GHz for an 800G port demuxed 1:2) still forwards
// minimum-size packets at line rate — the §3.3 claim.
//
// Exits 1 unless the model prints 1.62/0.60/1.62/1.19 GHz, 1:1 at 1.19 GHz
// and 1:2 at 0.60 GHz each reach 99.5% of the offered 3200 Gbps, and 1:2
// at 0.30 GHz lands within 0.5% of its 1612.8 Gbps clock cap (or if the
// report cannot be written).
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "feas/scaling.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace adcp;

constexpr std::uint32_t kPorts = 4;
constexpr double kPortGbps = 800.0;
constexpr std::uint32_t kPacketBytes = 84;

bool print_table3(sim::MetricRegistry& report) {
  constexpr const char* kModelGhz[] = {"1.62", "0.60", "1.62", "1.19"};
  std::printf("Table 3: Port demultiplexing examples (paper clocks: 1.62/0.60/1.62/1.19 GHz)\n");
  std::printf("%-12s %-12s %-12s %-10s\n", "port(Gbps)", "ports/pipe", "minpkt(B)",
              "freq(GHz)");
  const std::vector<feas::DesignPoint> points = feas::table3_design_points();
  bool ok = bench::reads("Table 3 rows", "%.0f", static_cast<double>(points.size()), "4");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const feas::DesignPoint& p = points[i];
    std::printf("%-12.0f %-12.1f %-12u %-10.2f\n", p.port_gbps, p.ports_per_pipeline,
                p.min_packet_bytes, p.clock_ghz);
    sim::Scope row = report.scope("row" + std::to_string(i));
    row.gauge("port_gbps").set(p.port_gbps);
    row.gauge("ports_per_pipeline").set(p.ports_per_pipeline);
    row.gauge("clock_ghz").set(p.clock_ghz);
    if (i < std::size(kModelGhz)) {
      ok &= bench::reads("Table 3 clock (GHz)", "%.2f", p.clock_ghz, kModelGhz[i]);
    }
  }
  return ok;
}

double run_adcp(std::uint32_t demux, double edge_clock_ghz) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = kPorts;
  cfg.port_gbps = kPortGbps;
  cfg.demux_factor = demux;
  cfg.edge_clock_ghz = edge_clock_ghz;
  cfg.central_pipeline_count = 8;
  cfg.central_clock_ghz = 1.25;
  core::AdcpSwitch sw(sim, cfg);
  core::AdcpProgram prog = core::forward_program(cfg);
  // Stateless forwarding has no placement or ordering affinity: spread
  // packets round-robin over the central bank AND over each port's m
  // egress sub-pipelines (the default egress demux is flow-affine to
  // preserve order, which would pin this single-flow-per-port stress to
  // one sub-pipe and halve its egress capacity).
  prog.placement = tm::placement::round_robin(cfg.central_pipeline_count);
  auto per_port = std::make_shared<std::vector<std::uint32_t>>(cfg.port_count, 0);
  prog.egress_demux = [per_port](const packet::Packet& pkt) {
    return (*per_port)[pkt.meta.egress_port % per_port->size()]++;
  };
  sw.load_program(std::move(prog));
  net::Fabric fabric(sim, sw, net::Link{kPortGbps, 100 * sim::kNanosecond});

  workload::SyntheticParams traffic;
  traffic.packet_bytes = kPacketBytes;
  traffic.packets_per_host = 2000;
  traffic.stride = 1;
  workload::run_permutation_traffic(fabric, traffic);
  sim.run();
  return sw.achieved_tx_gbps();
}

bool validate(sim::MetricRegistry& report) {
  const double offered = kPorts * kPortGbps;
  std::printf("\nSimulator validation (4x800G ports, 84 B packets, offered %.0f Gbps):\n",
              offered);
  std::printf("%-8s %-14s %-18s %-34s\n", "demux", "edge clock", "achieved (Gbps)",
              "expectation");
  // One packet per edge-pipe cycle: 4 ports x 2 pipes x 0.30 GHz x 84 B x 8
  // = 1612.8 Gbps.
  constexpr double kCap030Gbps = kPorts * 2 * 0.30 * kPacketBytes * 8;
  constexpr double kNoCeiling = std::numeric_limits<double>::infinity();
  struct Case {
    std::uint32_t demux;
    double clock;
    const char* note;
    double lo, hi;  // the gate on achieved Gbps
  };
  const Case cases[] = {
      {1, 1.19, "1:1 needs 1.19 GHz: line rate", 0.995 * offered, kNoCeiling},
      {2, 0.60, "1:2 at 0.60 GHz: line rate (the claim)", 0.995 * offered, kNoCeiling},
      {2, 0.30, "1:2 at 0.30 GHz: clock-capped", 0.995 * kCap030Gbps, 1.005 * kCap030Gbps},
  };
  bool ok = true;
  for (const Case& c : cases) {
    const double gbps = run_adcp(c.demux, c.clock);
    std::printf("%-8u %-14.2f %-18.1f %-34s\n", c.demux, c.clock, gbps, c.note);
    const std::string name = "demux" + std::to_string(c.demux) + ".clock" +
                             std::to_string(static_cast<int>(c.clock * 100)) + ".achieved_gbps";
    report.gauge(name).set(gbps);
    ok &= bench::within(name.c_str(), gbps, c.lo, c.hi);
  }
  return ok;
}

}  // namespace

int main() {
  sim::MetricRegistry report;
  bool ok = print_table3(report);
  ok &= validate(report);
  const bool wrote = bench::write_report(report, "table3_demultiplexing");
  return ok && wrote ? 0 : 1;
}

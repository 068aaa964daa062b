// E1 — Reproduces paper Table 2: "Port multiplexing poor scalability".
//
// Part 1 prints the table from the analytic ScalingModel (the paper's own
// arithmetic). Part 2 validates the model's central claim in the cycle
// simulator: at the design packet size an RMT pipeline holds line rate;
// below it, throughput is pinned by the pipeline clock.
//
// Exits 1 unless the model prints 85/160/247/494/494 B at
// 0.95/1.25/1.62/1.62/1.62 GHz, the simulator reaches 99.5% of the offered
// 1600 Gbps at 160 B and 320 B, and at 84 B lands within 0.5% of the
// 840 Gbps clock cap (or if the report cannot be written).
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "feas/scaling.hpp"
#include "net/host.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace adcp;

constexpr double kPipeGhz = 1.25;
constexpr double kOfferedGbps = 16 * 100.0;

bool print_table2(sim::MetricRegistry& report) {
  // The rows as the model prints them; EXPERIMENTS.md E1 explains the
  // +/-1 B against the paper's 84/495.
  struct Row {
    const char* bytes;
    const char* ghz;
  };
  constexpr Row kModel[] = {
      {"85", "0.95"}, {"160", "1.25"}, {"247", "1.62"}, {"494", "1.62"}, {"494", "1.62"}};
  std::printf("Table 2: Port multiplexing poor scalability (paper values: 84/160/247/495/495 B)\n");
  std::printf("%-12s %-12s %-10s %-10s %-12s %-10s\n", "throughput", "port(Gbps)",
              "pipelines", "ports/pipe", "minpkt(B)", "freq(GHz)");
  const std::vector<feas::DesignPoint> points = feas::table2_design_points();
  bool ok = bench::reads("Table 2 rows", "%.0f", static_cast<double>(points.size()), "5");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const feas::DesignPoint& p = points[i];
    std::printf("%-12.2f %-12.0f %-10u %-10.1f %-12u %-10.2f\n", p.switch_tbps,
                p.port_gbps, p.pipelines, p.ports_per_pipeline, p.min_packet_bytes,
                p.clock_ghz);
    if (i < std::size(kModel)) {
      ok &= bench::reads("Table 2 min packet (B)", "%.0f", p.min_packet_bytes, kModel[i].bytes);
      ok &= bench::reads("Table 2 clock (GHz)", "%.2f", p.clock_ghz, kModel[i].ghz);
    }
    sim::Scope row =
        report.scope("tbps" + std::to_string(static_cast<int>(p.switch_tbps)));
    row.gauge("min_packet_bytes").set(static_cast<double>(p.min_packet_bytes));
    row.gauge("clock_ghz").set(p.clock_ghz);
    row.gauge("ports_per_pipeline").set(p.ports_per_pipeline);
  }
  return ok;
}

double run_rmt(std::uint32_t packet_bytes) {
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 16;
  cfg.pipeline_count = 1;  // 16 x 100G into one pipeline (6.4T row geometry)
  cfg.port_gbps = 100.0;
  cfg.clock_ghz = kPipeGhz;
  cfg.design_min_packet_bytes = 160;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});

  workload::SyntheticParams traffic;
  traffic.packet_bytes = packet_bytes;
  traffic.packets_per_host = 400;
  traffic.stride = 3;
  workload::run_permutation_traffic(fabric, traffic);
  sim.run();
  return sw.achieved_tx_gbps();
}

bool validate(sim::MetricRegistry& report) {
  std::printf("\nSimulator validation (16x100G into one 1.25 GHz pipeline, offered 1600 Gbps):\n");
  std::printf("%-14s %-18s %-30s\n", "packet (B)", "achieved (Gbps)", "expectation");
  // One packet per cycle: 1.25 GHz x 84 B x 8 = 840 Gbps.
  constexpr double kCapGbps = kPipeGhz * 84 * 8;
  constexpr double kNoCeiling = std::numeric_limits<double>::infinity();
  struct Case {
    std::uint32_t bytes;
    const char* note;
    double lo, hi;  // the gate on achieved Gbps
  };
  const Case cases[] = {
      {160, "design point: ~line rate", 0.995 * kOfferedGbps, kNoCeiling},
      {320, "above design: line rate", 0.995 * kOfferedGbps, kNoCeiling},
      {84, "undersized: clock-capped ~840 Gbps", 0.995 * kCapGbps, 1.005 * kCapGbps},
  };
  bool ok = true;
  for (const Case& c : cases) {
    const double gbps = run_rmt(c.bytes);
    std::printf("%-14u %-18.1f %-30s\n", c.bytes, gbps, c.note);
    const std::string name = "pkt" + std::to_string(c.bytes) + ".achieved_gbps";
    report.gauge(name).set(gbps);
    ok &= bench::within(name.c_str(), gbps, c.lo, c.hi);
  }
  return ok;
}

}  // namespace

int main() {
  sim::MetricRegistry report;
  bool ok = print_table2(report);
  ok &= validate(report);
  const bool wrote = bench::write_report(report, "table2_multiplexing");
  return ok && wrote ? 0 : 1;
}

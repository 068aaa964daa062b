// E4 — Reproduces the paper's Figures 1/2 vs Figure 5: where can a coflow
// converge, and where can its results exit?
//
// A coflow of 8 workers spanning two ingress pipelines aggregates on the
// switch; every worker must receive the result. The four strategies:
//
//   RMT same-pipe      — illegal (flows cannot converge; Fig. 2 top)
//   RMT egress-local   — computes, but results exit ONE pipeline's ports
//                        (Fig. 2 bottom)
//   RMT recirculation  — works, at a bandwidth + latency tax (§1 issue 1)
//   ADCP global area   — works natively (Fig. 5)
//
// Reported: structural legality, workers reached, recirculation bytes,
// makespan.
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/simulator.hpp"
#include "workload/ml_allreduce.hpp"

namespace {

using namespace adcp;

constexpr std::uint32_t kWorkers = 8;  // hosts 0..7 -> pipelines 0 and 1
constexpr std::uint32_t kVector = 256;

workload::MlAllReduceParams wl_params() {
  workload::MlAllReduceParams p;
  p.workers = kWorkers;
  p.vector_len = kVector;
  p.elems_per_packet = 8;
  p.iterations = 1;
  return p;
}

struct Row {
  const char* name;
  bool legal = true;
  std::uint32_t workers_reached = 0;
  std::uint64_t recirc_bytes = 0;
  double makespan_us = 0.0;
};

std::uint32_t workers_reached(net::Fabric& fabric) {
  std::uint32_t n = 0;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    if (fabric.host(w).rx_packets() > 0) ++n;
  }
  return n;
}

Row run_rmt(rmt::RmtAggMode mode, const char* name) {
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 16;
  cfg.pipeline_count = 4;  // 4 ports/pipe: workers 0..7 span pipes 0,1
  rmt::RmtSwitch sw(sim, cfg);

  rmt::RmtAggOptions agg;
  agg.workers = kWorkers;
  agg.mode = mode;
  agg.elems_per_packet = 8;
  agg.report = std::make_shared<rmt::RmtAggReport>();
  sw.load_program(rmt::scalar_aggregation_program(cfg, agg));
  std::vector<packet::PortId> group(kWorkers);
  std::iota(group.begin(), group.end(), 0);
  sw.set_multicast_group(1, group);

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
  workload::MlAllReduceWorkload wl(wl_params());
  wl.attach(fabric);
  wl.start(sim, fabric);
  sim.run();

  Row row;
  row.name = name;
  std::vector<packet::PortId> ports(kWorkers);
  std::iota(ports.begin(), ports.end(), 0);
  row.legal = mode != rmt::RmtAggMode::kSamePipe || cfg.can_converge_ingress(ports);
  row.workers_reached = workers_reached(fabric);
  row.recirc_bytes = sw.stats().recirc_bytes;
  row.makespan_us = wl.complete()
                        ? static_cast<double>(wl.makespan()) / sim::kMicrosecond
                        : 0.0;
  return row;
}

Row run_adcp() {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 16;
  cfg.central_pipeline_count = 4;
  core::AdcpSwitch sw(sim, cfg);
  core::AggregationOptions agg;
  agg.workers = kWorkers;
  sw.load_program(core::aggregation_program(cfg, agg));
  std::vector<packet::PortId> group(kWorkers);
  std::iota(group.begin(), group.end(), 0);
  sw.set_multicast_group(1, group);

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
  workload::MlAllReduceWorkload wl(wl_params());
  wl.attach(fabric);
  wl.start(sim, fabric);
  sim.run();

  Row row;
  row.name = "ADCP global area";
  row.legal = true;
  row.workers_reached = workers_reached(fabric);
  row.recirc_bytes = 0;
  row.makespan_us = wl.complete()
                        ? static_cast<double>(wl.makespan()) / sim::kMicrosecond
                        : 0.0;
  return row;
}

void print_row(const Row& r, sim::MetricRegistry& report, const char* slug) {
  if (r.makespan_us > 0.0) {
    std::printf("%-22s %-10s %-10u/%u %-14llu %-12.1f\n", r.name,
                r.legal ? "yes" : "NO", r.workers_reached, kWorkers,
                static_cast<unsigned long long>(r.recirc_bytes), r.makespan_us);
  } else {
    std::printf("%-22s %-10s %-10u/%u %-14llu %-12s\n", r.name,
                r.legal ? "yes" : "NO", r.workers_reached, kWorkers,
                static_cast<unsigned long long>(r.recirc_bytes), "never");
  }
  sim::Scope row = report.scope(slug);
  row.gauge("legal").set(r.legal ? 1.0 : 0.0);
  row.gauge("workers_reached").set(static_cast<double>(r.workers_reached));
  row.gauge("recirc_bytes").set(static_cast<double>(r.recirc_bytes));
  row.gauge("makespan_us").set(r.makespan_us);
}

}  // namespace

int main() {
  std::printf(
      "Fig. 2 vs Fig. 5: coflow convergence and result reachability\n"
      "(8-worker aggregation; workers span two ingress pipelines; result\n"
      " must reach all 8 workers)\n\n");
  std::printf("%-22s %-10s %-12s %-14s %-12s\n", "strategy", "legal?", "reached",
              "recirc bytes", "makespan(us)");
  sim::MetricRegistry report;
  const Row rows[] = {
      run_rmt(rmt::RmtAggMode::kSamePipe, "RMT same-pipe"),
      run_rmt(rmt::RmtAggMode::kEgressLocal, "RMT egress-local"),
      run_rmt(rmt::RmtAggMode::kRecirculate, "RMT recirculation"),
      run_adcp(),
  };
  const char* slugs[] = {"rmt_same_pipe", "rmt_egress_local", "rmt_recirculate",
                         "adcp_global_area"};
  for (std::size_t i = 0; i < std::size(rows); ++i) print_row(rows[i], report, slugs[i]);
  std::printf(
      "\nExpected shape: same-pipe illegal for cross-pipe coflows; egress-local\n"
      "reaches only the agg port's host; recirculation reaches everyone but pays\n"
      "one extra pass per update; the ADCP global area reaches everyone for free.\n");

  // The headline, row by row: legal, workers reached, recirculated bytes
  // and makespan (0.0 is the table's "never").
  struct Want {
    const char* legal;
    const char* reached;
    const char* recirc;
    const char* makespan;
  };
  const Want want[] = {
      {"0", "0", "0", "0.0"},
      {"1", "1", "0", "0.0"},
      {"1", "8", "31232", "3.0"},
      {"1", "8", "0", "0.8"},
  };
  bool ok = true;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    const std::string name = r.name;
    ok &= bench::reads((name + " legal").c_str(), "%.0f", r.legal ? 1.0 : 0.0, want[i].legal);
    ok &= bench::reads((name + " workers reached").c_str(), "%.0f", r.workers_reached,
                       want[i].reached);
    ok &= bench::reads((name + " recirc bytes").c_str(), "%.0f",
                       static_cast<double>(r.recirc_bytes), want[i].recirc);
    ok &= bench::reads((name + " makespan (us)").c_str(), "%.1f", r.makespan_us,
                       want[i].makespan);
  }
  const bool wrote = bench::write_report(report, "fig5_global_area");
  return ok && wrote ? 0 : 1;
}

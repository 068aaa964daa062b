// E12 — The paper's §1 design space, measured: classic RMT (line rate,
// restricted programming), run-to-completion (expressive, no line rate),
// and the proposed ADCP (both). Two probes:
//
//   (1) line-rate forwarding of minimum-size packets — the throughput axis
//   (2) cross-pipe parameter aggregation — the expressiveness axis
//       (who completes it, with what workaround, at what cost)
//
// The bench asserts its headline and exits 1 otherwise (reason on stderr):
// RMT and ADCP forward at least 99.5% of the offered 800 Gbps while RTC
// reaches 13.8%; all three aggregations complete, RMT's through 31 232 B
// of recirculation; ADCP's makespan reads 0.8 us against 3.0 us for RMT
// and RTC.
#include <cstdio>
#include <limits>
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
#include "rtc/programs.hpp"
#include "rtc/rtc_switch.hpp"
#include "sim/simulator.hpp"
#include "workload/ml_allreduce.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace adcp;

constexpr std::uint32_t kPorts = 8;
const net::Link kLink{100.0, 200 * sim::kNanosecond};

std::vector<packet::PortId> everyone() {
  std::vector<packet::PortId> g(kPorts);
  std::iota(g.begin(), g.end(), 0);
  return g;
}

rmt::RmtConfig rmt_config() {
  rmt::RmtConfig cfg;
  cfg.port_count = kPorts;
  cfg.pipeline_count = 2;
  cfg.clock_ghz = 1.25;
  return cfg;
}

core::AdcpConfig adcp_config() {
  core::AdcpConfig cfg;
  cfg.port_count = kPorts;
  cfg.central_pipeline_count = 4;
  return cfg;
}

rtc::RtcConfig rtc_config() {
  rtc::RtcConfig cfg;
  cfg.port_count = kPorts;
  cfg.processors = 16;
  cfg.clock_ghz = 1.0;
  return cfg;
}

// ---------------------------------------------------------------- probe 1

template <typename Switch>
double forwarding_gbps(Switch& sw, sim::Simulator& sim) {
  net::Fabric fabric(sim, sw, kLink);
  workload::SyntheticParams traffic;
  traffic.packet_bytes = 84;
  traffic.packets_per_host = 400;
  workload::run_permutation_traffic(fabric, traffic);
  sim.run();
  return sw.achieved_tx_gbps();
}

bool probe_forwarding(sim::MetricRegistry& report) {
  const double offered = kPorts * 100.0;
  const double line_rate = 0.995 * offered;
  constexpr double kNoCeiling = std::numeric_limits<double>::infinity();
  bool ok = true;
  std::printf("(1) 84 B forwarding, offered %.0f Gbps:\n", offered);
  std::printf("%-22s %-16s %-12s\n", "architecture", "achieved(Gbps)", "of offered");

  {
    sim::Simulator sim;
    rmt::RmtSwitch sw(sim, rmt_config());
    sw.load_program(rmt::forward_program(rmt_config()));
    const double got = forwarding_gbps(sw, sim);
    std::printf("%-22s %-16.1f %5.1f%%\n", "RMT (4 ports/pipe)", got, 100 * got / offered);
    report.gauge("forwarding.rmt.achieved_gbps").set(got);
    ok &= bench::within("RMT forwarding (Gbps)", got, line_rate, kNoCeiling);
  }
  {
    sim::Simulator sim;
    core::AdcpSwitch sw(sim, adcp_config());
    core::AdcpProgram prog = core::forward_program(adcp_config());
    prog.placement = tm::placement::round_robin(adcp_config().central_pipeline_count);
    sw.load_program(std::move(prog));
    const double got = forwarding_gbps(sw, sim);
    std::printf("%-22s %-16.1f %5.1f%%\n", "ADCP (1:2 demux)", got, 100 * got / offered);
    report.gauge("forwarding.adcp.achieved_gbps").set(got);
    ok &= bench::within("ADCP forwarding (Gbps)", got, line_rate, kNoCeiling);
  }
  {
    sim::Simulator sim;
    rtc::RtcSwitch sw(sim, rtc_config());
    sw.load_program(rtc::forward_program(rtc_config()));
    const double got = forwarding_gbps(sw, sim);
    std::printf("%-22s %-16.1f %5.1f%%\n", "RTC (16 processors)", got, 100 * got / offered);
    report.gauge("forwarding.rtc.achieved_gbps").set(got);
    ok &= bench::reads("RTC forwarding (% of offered)", "%.1f", 100 * got / offered, "13.8");
  }
  return ok;
}

// ---------------------------------------------------------------- probe 2

workload::MlAllReduceParams agg_params() {
  workload::MlAllReduceParams p;
  p.workers = kPorts;  // spans both RMT pipelines
  p.vector_len = 256;
  p.elems_per_packet = 8;
  p.iterations = 1;
  return p;
}

/// Gates one architecture's aggregation: it completes, in `makespan_us`.
bool aggregated(const char* arch, const workload::MlAllReduceWorkload& wl,
                const char* makespan_us) {
  const std::string name = arch;
  bool ok = bench::reads((name + " aggregation complete").c_str(), "%.0f",
                         wl.complete() ? 1.0 : 0.0, "1");
  ok &= bench::reads((name + " aggregation makespan (us)").c_str(), "%.1f",
                     static_cast<double>(wl.makespan()) / sim::kMicrosecond, makespan_us);
  return ok;
}

bool probe_aggregation(sim::MetricRegistry& report) {
  std::printf("\n(2) cross-pipe aggregation (%u workers, 256 weights):\n", kPorts);
  bool ok = true;
  std::printf("%-22s %-12s %-14s %-14s %-20s\n", "architecture", "complete", "makespan(us)",
              "p99 lat(us)", "workaround / cost");

  {
    sim::Simulator sim;
    rmt::RmtSwitch sw(sim, rmt_config());
    rmt::RmtAggOptions agg;
    agg.workers = kPorts;
    agg.mode = rmt::RmtAggMode::kRecirculate;
    agg.elems_per_packet = 8;
    agg.report = std::make_shared<rmt::RmtAggReport>();
    sw.load_program(rmt::scalar_aggregation_program(rmt_config(), agg));
    sw.set_multicast_group(1, everyone());
    net::Fabric fabric(sim, sw, kLink);
    workload::MlAllReduceWorkload wl(agg_params());
    wl.attach(fabric);
    wl.start(sim, fabric);
    sim.run();
    std::printf("%-22s %-12s %-14.1f %-14s recirc %llu B\n", "RMT",
                wl.complete() ? "yes" : "NO",
                static_cast<double>(wl.makespan()) / sim::kMicrosecond, "-",
                static_cast<unsigned long long>(sw.stats().recirc_bytes));
    report.gauge("aggregation.rmt.complete").set(wl.complete() ? 1.0 : 0.0);
    report.gauge("aggregation.rmt.makespan_us")
        .set(static_cast<double>(wl.makespan()) / sim::kMicrosecond);
    report.gauge("aggregation.rmt.recirc_bytes")
        .set(static_cast<double>(sw.stats().recirc_bytes));
    ok &= aggregated("RMT", wl, "3.0");
    ok &= bench::reads("RMT recirculation (B)", "%.0f",
                       static_cast<double>(sw.stats().recirc_bytes), "31232");
  }
  {
    sim::Simulator sim;
    core::AdcpSwitch sw(sim, adcp_config());
    core::AggregationOptions agg;
    agg.workers = kPorts;
    sw.load_program(core::aggregation_program(adcp_config(), agg));
    sw.set_multicast_group(1, everyone());
    net::Fabric fabric(sim, sw, kLink);
    workload::MlAllReduceWorkload wl(agg_params());
    wl.attach(fabric);
    wl.start(sim, fabric);
    sim.run();
    std::printf("%-22s %-12s %-14.1f %-14s none (global area)\n", "ADCP",
                wl.complete() ? "yes" : "NO",
                static_cast<double>(wl.makespan()) / sim::kMicrosecond, "-");
    report.gauge("aggregation.adcp.complete").set(wl.complete() ? 1.0 : 0.0);
    report.gauge("aggregation.adcp.makespan_us")
        .set(static_cast<double>(wl.makespan()) / sim::kMicrosecond);
    ok &= aggregated("ADCP", wl, "0.8");
  }
  {
    sim::Simulator sim;
    rtc::RtcSwitch sw(sim, rtc_config());
    rtc::RtcAggregationOptions agg;
    agg.workers = kPorts;
    sw.load_program(rtc::aggregation_program(agg));
    sw.set_multicast_group(1, everyone());
    net::Fabric fabric(sim, sw, kLink);
    workload::MlAllReduceWorkload wl(agg_params());
    wl.attach(fabric);
    wl.start(sim, fabric);
    sim.run();
    std::printf("%-22s %-12s %-14.1f %-14.2f none (shared mem)\n", "RTC",
                wl.complete() ? "yes" : "NO",
                static_cast<double>(wl.makespan()) / sim::kMicrosecond,
                sw.latency().quantile(0.99) / sim::kMicrosecond);
    report.gauge("aggregation.rtc.complete").set(wl.complete() ? 1.0 : 0.0);
    report.gauge("aggregation.rtc.makespan_us")
        .set(static_cast<double>(wl.makespan()) / sim::kMicrosecond);
    report.gauge("aggregation.rtc.p99_latency_us")
        .set(sw.latency().quantile(0.99) / sim::kMicrosecond);
    ok &= aggregated("RTC", wl, "3.0");
  }
  return ok;
}

}  // namespace

int main() {
  std::printf(
      "§1 design space: line rate vs expressiveness across three architectures\n\n");
  sim::MetricRegistry report;
  bool ok = probe_forwarding(report);
  ok &= probe_aggregation(report);
  std::printf(
      "\nExpected shape: RMT and ADCP forward at line rate while RTC collapses\n"
      "to its processor pool; RMT needs the recirculation workaround for the\n"
      "coflow while RTC and ADCP converge natively — only ADCP delivers both\n"
      "properties at once, which is the paper's thesis.\n");
  const bool wrote = bench::write_report(report, "architecture_comparison");
  return ok && wrote ? 0 : 1;
}

// E3 — Reproduces the paper's Figure 3 (replication due to scalar
// processing) and Figure 6 (array operations via intra-stage shared
// memory), as measurements:
//
//   * SRAM cost: an RMT stage matching k keys per packet needs k copies of
//     the mapping table, read back from the stage's StageMemoryPool.
//   * Key throughput: RMT retires k scalar register updates serially (k
//     cycles/packet); the ADCP array engine retires the batch in
//     ceil(k/width) cycles.
//
// Both are measured end to end with the aggregation workload at
// k = 1, 2, 4, 8, 16 elements per packet. The ADCP side measures key rate,
// not memory: its aggregation program attaches no MAU, so no stage SRAM
// holds the one copy of the mapping that Fig. 6's unified memory keeps.
//
// Exits 1 unless the columns hold the figures' shape: RMT SRAM is 4k
// blocks at every k, every run completes with zero bad sums, and ADCP
// keys/us rises with k (or if the report cannot be written).
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

constexpr std::uint32_t kWorkers = 4;
constexpr std::uint32_t kVector = 512;

struct Outcome {
  double makespan_us = 0.0;
  double keys_per_us = 0.0;
  std::uint32_t sram_blocks = 0;  // RMT only
  bool complete = false;
  std::uint64_t bad_sums = 0;
};

workload::MlAllReduceParams params_for(std::uint32_t k) {
  workload::MlAllReduceParams p;
  p.workers = kWorkers;
  p.vector_len = kVector;
  p.elems_per_packet = k;
  p.iterations = 1;
  return p;
}

Outcome run_rmt(std::uint32_t k) {
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 16;
  cfg.pipeline_count = 4;
  rmt::RmtSwitch sw(sim, cfg);

  rmt::RmtAggOptions agg;
  agg.workers = kWorkers;
  agg.mode = rmt::RmtAggMode::kSamePipe;  // workers 0..3 share pipeline 0
  agg.elems_per_packet = k;
  agg.install_mapping_tables = true;
  agg.mapping_table_blocks = 4;
  agg.mapping_table_capacity = kVector;
  agg.report = std::make_shared<rmt::RmtAggReport>();
  // Program-level facts flow through the switch registry too ("rmt.agg.*").
  agg.metrics = sw.metric_scope();
  sw.load_program(rmt::scalar_aggregation_program(cfg, agg));
  sw.set_multicast_group(1, {0, 1, 2, 3});

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
  workload::MlAllReduceWorkload wl(params_for(k));
  wl.attach(fabric);
  wl.start(sim, fabric);
  sim.run();

  Outcome o;
  o.complete = wl.complete();
  o.bad_sums = wl.bad_sums();
  o.makespan_us = static_cast<double>(wl.makespan()) / sim::kMicrosecond;
  o.keys_per_us = static_cast<double>(kWorkers) * kVector / o.makespan_us;
  // Read back via the registry rather than the legacy report pointer —
  // both must agree (the program mirrors one into the other).
  o.sram_blocks = static_cast<std::uint32_t>(
      sw.metrics().snapshot().value("rmt.agg.sram_blocks_used"));
  if (o.sram_blocks != agg.report->sram_blocks_used) std::abort();
  return o;
}

Outcome run_adcp(std::uint32_t k, std::uint32_t width) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 16;
  cfg.central_pipeline_count = 4;
  cfg.central_stage.array->lane_width = width;
  core::AdcpSwitch sw(sim, cfg);

  core::AggregationOptions agg;
  agg.workers = kWorkers;
  sw.load_program(core::aggregation_program(cfg, agg));
  std::vector<packet::PortId> group(kWorkers);
  std::iota(group.begin(), group.end(), 0);
  sw.set_multicast_group(1, group);

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
  workload::MlAllReduceWorkload wl(params_for(k));
  wl.attach(fabric);
  wl.start(sim, fabric);
  sim.run();

  Outcome o;
  o.complete = wl.complete();
  o.bad_sums = wl.bad_sums();
  o.makespan_us = static_cast<double>(wl.makespan()) / sim::kMicrosecond;
  o.keys_per_us = static_cast<double>(kWorkers) * kVector / o.makespan_us;
  return o;
}

}  // namespace

int main() {
  std::printf(
      "Fig. 3 + Fig. 6: scalar replication vs array matching\n"
      "(%u workers aggregate a %u-weight vector; k = elements per packet)\n\n",
      kWorkers, kVector);
  std::printf("%-4s | %-38s | %-25s\n", "", "RMT (scalar, replicated tables)",
              "ADCP (16-lane array engine)");
  std::printf("%-4s | %-10s %-12s %-12s | %-12s %-12s\n", "k", "SRAM(blk)", "mkspan(us)",
              "keys/us", "mkspan(us)", "keys/us");
  sim::MetricRegistry report;
  bool ok = true;
  double adcp_prev = 0.0;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
    const Outcome r = run_rmt(k);
    const Outcome a = run_adcp(k, 16);
    std::printf("%-4u | %-10u %-12.1f %-12.0f | %-12.1f %-12.0f%s%s\n", k, r.sram_blocks,
                r.makespan_us, r.keys_per_us, a.makespan_us, a.keys_per_us,
                (r.complete && a.complete) ? "" : "  [INCOMPLETE]",
                (r.bad_sums + a.bad_sums) == 0 ? "" : "  [BAD SUMS]");
    sim::Scope row = report.scope('k' + std::to_string(k));
    row.gauge("rmt.sram_blocks").set(static_cast<double>(r.sram_blocks));
    row.gauge("rmt.makespan_us").set(r.makespan_us);
    row.gauge("rmt.keys_per_us").set(r.keys_per_us);
    row.gauge("adcp.makespan_us").set(a.makespan_us);
    row.gauge("adcp.keys_per_us").set(a.keys_per_us);
    if (r.sram_blocks != 4 * k) {
      std::fprintf(stderr, "claim failed: k = %u RMT SRAM %u blocks, not %u\n", k,
                   r.sram_blocks, 4 * k);
      ok = false;
    }
    if (!r.complete || !a.complete || r.bad_sums + a.bad_sums != 0) {
      std::fprintf(stderr, "claim failed: k = %u run incomplete or bad sums\n", k);
      ok = false;
    }
    if (a.keys_per_us <= adcp_prev) {
      std::fprintf(stderr, "claim failed: k = %u ADCP keys/us %.0f does not rise from %.0f\n",
                   k, a.keys_per_us, adcp_prev);
      ok = false;
    }
    adcp_prev = a.keys_per_us;
  }
  std::printf(
      "\nExpected shape: RMT SRAM grows ~k x (replication, Fig. 3). ADCP keys/us\n"
      "grows with k (goodput + batch retire), RMT keys/us saturates (serialized\n"
      "scalar state updates).\n");
  const bool wrote = bench::write_report(report, "fig3_fig6_array_matching");
  return ok && wrote ? 0 : 1;
}

// E8 — §3.1 ablation: application-defined scheduling in the first traffic
// manager. The paper: the first TM "could keep a sort order while it
// merges flows that are themselves sorted".
//
// Setup: 8 sources each send an internally-sorted run of records to one
// sink (a merge phase of an external sort). TM1 disciplines compared:
//   FIFO          — arrival order; runs interleave arbitrarily
//   eager merge   — merge among present heads (work-conserving)
//   strict merge  — true merge (waits for every live flow to show a head)
//
// Reported: out-of-order deliveries at the sink (= the reorder buffer the
// host must provision) and the completion time.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "sim/simulator.hpp"
#include "tm/merge.hpp"

namespace {

using namespace adcp;

constexpr std::uint32_t kSources = 8;
constexpr std::uint32_t kRecordsPerSource = 64;
constexpr std::uint32_t kSink = 15;

std::uint64_t seq_key(const packet::Packet& pkt) {
  packet::IncHeader inc;
  return packet::decode_inc(pkt, inc) ? inc.seq : 0;
}

enum class Mode { kFifo, kEager, kStrict };

struct Result {
  std::uint64_t received = 0;
  std::uint64_t out_of_order = 0;
  double makespan_us = 0.0;
};

Result run(Mode mode) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 16;
  cfg.central_pipeline_count = 1;  // one merge point
  // Make the merge point the bottleneck so runs overlap inside TM1 —
  // otherwise every discipline degenerates to arrival order.
  cfg.central_clock_ghz = 0.005;
  core::AdcpSwitch sw(sim, cfg);

  core::AdcpProgram prog = core::forward_program(cfg);
  prog.placement = [](const packet::Packet&) { return 0u; };
  prog.egress_demux = [](const packet::Packet&) { return 0u; };  // keep order
  if (mode != Mode::kFifo) {
    const tm::MergeMode mm =
        mode == Mode::kStrict ? tm::MergeMode::kStrict : tm::MergeMode::kEager;
    prog.tm1_scheduler = [mm](std::uint32_t) {
      return std::make_unique<tm::MergeScheduler>(seq_key, mm);
    };
  }
  sw.load_program(std::move(prog));

  tm::MergeScheduler* merge = nullptr;
  if (mode == Mode::kStrict) {
    merge = &dynamic_cast<tm::MergeScheduler&>(sw.tm1().scheduler(0));
    for (std::uint32_t s = 0; s < kSources; ++s) merge->register_flow(s + 1);
  }

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});
  Result res;
  std::uint64_t highest = 0;
  fabric.host(kSink).set_rx_callback([&](net::Host&, const packet::Packet& pkt) {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc)) return;
    ++res.received;
    if (inc.seq < highest) {
      ++res.out_of_order;
    } else {
      highest = inc.seq;
    }
  });

  // Source s owns global ranks s, s+8, s+16, ...: each flow is sorted and
  // the global sort order interleaves all flows. Sources run at different
  // rates (source s paces one record per (s+1) x 200 ns), so fast flows
  // run far ahead of slow ones — exactly the skew a merge must absorb.
  for (std::uint32_t s = 0; s < kSources; ++s) {
    for (std::uint32_t r = 0; r < kRecordsPerSource; ++r) {
      packet::IncPacketSpec spec;
      spec.ip_dst = 0x0a000000 | kSink;
      spec.inc.flow_id = s + 1;
      spec.inc.seq = r * kSources + s;  // globally interleaved ranks
      spec.inc.worker_id = s;
      spec.inc.elements.push_back({spec.inc.seq, s});
      sim::Time when = static_cast<sim::Time>(r) * (s + 1) * 200 * sim::kNanosecond;
      // The slowest source additionally goes silent mid-run (a straggler):
      // eager merges proceed without it and pay in ordering; strict waits.
      if (s == kSources - 1 && r >= 8) when += 60 * sim::kMicrosecond;
      fabric.host(s).send_inc(spec, when);
    }
  }
  sim.run();
  if (mode == Mode::kStrict && merge != nullptr) {
    // Close the flows so the strict merge drains its tail.
    for (std::uint32_t s = 0; s < kSources; ++s) merge->mark_flow_done(s + 1);
    sw.kick_central(0);
    sim.run();
  }
  res.makespan_us = static_cast<double>(fabric.host(kSink).last_rx_time()) /
                    sim::kMicrosecond;
  return res;
}

}  // namespace

int main() {
  std::printf(
      "§3.1 ablation: TM1 discipline for merging %u sorted runs (%u records each)\n\n",
      kSources, kRecordsPerSource);
  std::printf("%-14s %-12s %-16s %-14s\n", "TM1 policy", "received", "out-of-order",
              "makespan(us)");
  struct Case {
    Mode mode;
    const char* name;
  };
  const Case cases[] = {
      {Mode::kFifo, "FIFO"},
      {Mode::kEager, "eager merge"},
      {Mode::kStrict, "strict merge"},
  };
  const char* slug[] = {"fifo", "eager", "strict"};
  // The headline: every policy delivers all 512 records; 434, 55 and 0 of
  // them arrive out of order, in 163.6, 163.6 and 167.5 us.
  const char* want_out_of_order[] = {"434", "55", "0"};
  const char* want_makespan[] = {"163.6", "163.6", "167.5"};
  bool ok = true;
  sim::MetricRegistry report;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Result r = run(cases[i].mode);
    std::printf("%-14s %-12llu %-16llu %-14.1f\n", cases[i].name,
                static_cast<unsigned long long>(r.received),
                static_cast<unsigned long long>(r.out_of_order), r.makespan_us);
    sim::Scope row = report.scope(slug[i]);
    row.gauge("received").set(static_cast<double>(r.received));
    row.gauge("out_of_order").set(static_cast<double>(r.out_of_order));
    row.gauge("makespan_us").set(r.makespan_us);

    const std::string name = cases[i].name;
    ok &= bench::reads((name + " received").c_str(), "%.0f", static_cast<double>(r.received),
                       "512");
    ok &= bench::reads((name + " out of order").c_str(), "%.0f",
                       static_cast<double>(r.out_of_order), want_out_of_order[i]);
    ok &= bench::reads((name + " makespan (us)").c_str(), "%.1f", r.makespan_us,
                       want_makespan[i]);
  }
  std::printf(
      "\nExpected shape: FIFO delivers heavily out of order under rate skew; eager\n"
      "merge absorbs steady skew but pays ordering when a straggler goes silent;\n"
      "strict merge delivers a perfectly sorted stream at a small makespan tax\n"
      "(it idles while waiting for the straggler).\n");
  const bool wrote = bench::write_report(report, "tm_merge_ablation");
  return ok && wrote ? 0 : 1;
}

// E16 — The AQM loop on the ADCP traffic managers: TM2 marks ECN CE above
// a queue threshold; DCTCP-style senders react. Compared against blind
// senders (no reaction) across incast degrees: peak shared-buffer
// occupancy, drops, and completion time.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "tm/shared_buffer.hpp"
#include "workload/dctcp.hpp"

namespace {

using namespace adcp;

struct Outcome {
  std::uint64_t peak_buffer = 0;
  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  double makespan_us = 0.0;
  bool all_complete = true;
  bool series_written = true;  ///< false when the requested series could not be written
};

/// When `series_path` is set, a TimeSeriesSampler polls TM2's shared-buffer
/// occupancy every 5 us of simulated time up to `horizon` and the series is
/// written as a Perfetto counter track — the queue-depth-over-time view
/// behind the peak numbers.
Outcome run(std::uint32_t senders, bool react, const char* series_path = nullptr,
            sim::Time horizon = 0) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 16;
  cfg.ecn_threshold_bytes = 2000;
  cfg.tm2_buffer_bytes = 1 << 20;  // finite: blind senders can overrun it
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});

  std::optional<sim::TimeSeriesSampler> sampler;
  if (series_path != nullptr) {
    sampler.emplace(sim, 5 * sim::kMicrosecond);
    sampler->add_probe(
        "tm2_buffer_bytes",
        [](const void* buf) {
          return static_cast<double>(static_cast<const tm::SharedBuffer*>(buf)->used());
        },
        &sw.tm2().buffer());
    sampler->start();
    // An active periodic keeps run() alive; retire the sampler once the
    // (previously measured) flows are done.
    sim.at(horizon, [&sampler] { sampler->stop(); });
  }

  std::vector<workload::DctcpFlow> flows;
  flows.reserve(senders);
  for (std::uint32_t s = 1; s <= senders; ++s) {
    workload::DctcpParams p;
    p.sender = s;
    p.receiver = 0;
    p.flow_id = s;
    p.total_packets = 1500;
    p.initial_cwnd = 16;
    p.react_to_ecn = react;
    flows.emplace_back(p);
  }
  for (auto& f : flows) {
    f.attach(sim, fabric);
    f.start(sim, fabric);
  }
  sim.run();

  Outcome o;
  if (sampler.has_value()) {
    o.series_written = bench::write_trace(
        series_path, sim::spans_to_perfetto({}, sampler->counter_series(), 1e-6));
  }
  o.peak_buffer = sw.tm2().buffer().peak();
  o.drops = sw.tm2().stats().dropped;
  o.marks = sw.tm2().stats().ecn_marked;
  for (auto& f : flows) {
    o.all_complete = o.all_complete && f.complete();
    o.makespan_us = std::max(
        o.makespan_us, static_cast<double>(f.completion_time()) / sim::kMicrosecond);
  }
  return o;
}

}  // namespace

int main() {
  std::printf(
      "ECN marking + DCTCP reaction on the ADCP TM2 (threshold 2 KB, 1500-pkt flows)\n\n");
  std::printf("%-8s %-10s %-16s %-10s %-10s %-14s %-10s\n", "incast", "senders",
              "peak buf (KB)", "drops", "marks", "makespan(us)", "complete");
  sim::MetricRegistry report;
  double dctcp8_makespan_us = 0.0;
  // The headline: every row completes with 0 drops, DCTCP's peak buffer
  // sits far below blind's at every incast degree, and DCTCP's makespan is
  // at most 1.03x blind's.
  const std::uint32_t incasts[] = {2, 4, 8};
  const char* want_peak_kb[][2] = {{"20.8", "4.1"}, {"53.6", "8.3"}, {"102.5", "28.2"}};
  bool ok = true;
  for (std::size_t i = 0; i < std::size(incasts); ++i) {
    const std::uint32_t n = incasts[i];
    double blind_makespan_us = 0.0;
    for (const bool react : {false, true}) {
      const Outcome o = run(n, react);
      std::printf("%-8s %-10u %-16.1f %-10llu %-10llu %-14.1f %-10s\n",
                  react ? "DCTCP" : "blind", n,
                  static_cast<double>(o.peak_buffer) / 1024.0,
                  static_cast<unsigned long long>(o.drops),
                  static_cast<unsigned long long>(o.marks), o.makespan_us,
                  o.all_complete ? "yes" : "NO");
      sim::Scope row = report.scope(std::string(react ? "dctcp" : "blind") +
                                    std::to_string(n));
      row.gauge("peak_buffer_bytes").set(static_cast<double>(o.peak_buffer));
      row.gauge("drops").set(static_cast<double>(o.drops));
      row.gauge("ecn_marks").set(static_cast<double>(o.marks));
      row.gauge("makespan_us").set(o.makespan_us);
      if (react && n == 8) dctcp8_makespan_us = o.makespan_us;

      const std::string name =
          std::string(react ? "DCTCP" : "blind") + " " + std::to_string(n) + " senders";
      ok &= bench::reads((name + " complete").c_str(), "%.0f", o.all_complete ? 1.0 : 0.0, "1");
      ok &= bench::reads((name + " drops").c_str(), "%.0f", static_cast<double>(o.drops), "0");
      ok &= bench::reads((name + " peak buffer (KB)").c_str(), "%.1f",
                         static_cast<double>(o.peak_buffer) / 1024.0,
                         want_peak_kb[i][react ? 1 : 0]);
      if (react) {
        ok &= bench::within((name + " makespan (us)").c_str(), o.makespan_us, 0.0,
                            1.03 * blind_makespan_us);
      } else {
        blind_makespan_us = o.makespan_us;
      }
    }
  }

  // Queue-depth-over-time view of the headline case, via TimeSeriesSampler.
  const auto horizon =
      static_cast<sim::Time>(dctcp8_makespan_us * sim::kMicrosecond) +
      5 * sim::kMicrosecond;
  const bool traced = run(8, true, "TRACE_ecn_dctcp.json", horizon).series_written;
  std::printf(
      "\nExpected shape: blind senders grow into deep queues (peak scales with\n"
      "incast degree); reacting senders hold the queue near the threshold at a\n"
      "small makespan cost — the marking signal the TM produces is sufficient\n"
      "for end-host congestion control, with no switch drops needed.\n");
  const bool wrote = bench::write_report(report, "ecn_dctcp");
  return ok && traced && wrote ? 0 : 1;
}

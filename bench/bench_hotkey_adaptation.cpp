// E13 — NetCache-style adaptive caching on the ADCP global area: the data
// plane counts misses in a Count-Min sketch (mat::sketch), the control
// plane (ctrl::HotKeyController) polls it and installs hot keys, and the
// hit ratio climbs from cold to warm — the "caching" application class of
// the paper's §1 list, closed-loop.
//
// The bench asserts its headline and exits 1 otherwise (reason on stderr):
// no wrong values, a hit ratio of 7.3% in the cold 0-50 us window and 49.2%
// in the 450-500 us window, 35 controller polls and 48 installed keys.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "ctrl/hotkey.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace adcp;

constexpr std::uint64_t kKeySpace = 4096;
constexpr std::uint32_t kReads = 6000;
constexpr sim::Time kWindow = 50 * sim::kMicrosecond;

std::uint32_t store_value(std::uint64_t key) {
  return static_cast<std::uint32_t>(key) * 7 + 1;
}

}  // namespace

int main() {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  core::AdcpSwitch sw(sim, cfg);

  auto telemetry = std::make_shared<core::KvTelemetry>(2048, 4, 2048);
  core::KvCacheOptions opts;
  opts.key_space = kKeySpace;
  opts.telemetry = telemetry;
  sw.load_program(core::kv_cache_program(cfg, opts));

  ctrl::HotKeyControllerConfig cc;
  cc.hot_threshold = 16;
  cc.period = 20 * sim::kMicrosecond;
  cc.install_budget_per_poll = 128;
  cc.key_space = kKeySpace;
  ctrl::HotKeyController controller(cc, telemetry, sw, store_value);
  controller.start(sim);

  net::Fabric fabric(sim, sw, net::Link{100.0, 200 * sim::kNanosecond});

  // Per-window hit/miss accounting at the client.
  std::vector<std::uint64_t> window_hits(64, 0);
  std::vector<std::uint64_t> window_misses(64, 0);
  std::uint64_t wrong = 0;
  fabric.host(0).set_rx_callback([&](net::Host& host, const packet::Packet& pkt) {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc)) return;
    if (inc.opcode != packet::IncOpcode::kAggResult) return;
    const std::size_t w = static_cast<std::size_t>(host.last_rx_time() / kWindow);
    if (w < window_hits.size()) ++window_hits[w];
    for (const packet::IncElement& e : inc.elements) {
      if (e.value != store_value(e.key)) ++wrong;
    }
  });
  fabric.host(7).set_rx_callback([&](net::Host& host, const packet::Packet& pkt) {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc)) return;
    if (inc.opcode != packet::IncOpcode::kRead) return;
    const std::size_t w = static_cast<std::size_t>(host.last_rx_time() / kWindow);
    if (w < window_misses.size()) ++window_misses[w];
  });

  // Zipf-skewed reads, paced so the run spans several controller periods.
  sim::Rng rng(42);
  sim::Zipf zipf(kKeySpace, 0.99);
  for (std::uint32_t r = 0; r < kReads; ++r) {
    packet::IncPacketSpec spec;
    spec.ip_dst = 0x0a000007;  // backing store host
    spec.inc.opcode = packet::IncOpcode::kRead;
    spec.inc.worker_id = 0;
    spec.inc.seq = r;
    spec.inc.elements.push_back({static_cast<std::uint32_t>(zipf.sample(rng)), 0});
    fabric.host(0).send_inc(spec, static_cast<sim::Time>(r) * 100 * sim::kNanosecond);
  }
  sim.run_until(700 * sim::kMicrosecond);
  controller.stop();
  sim.run();

  std::printf("NetCache-style adaptive caching (zipf 0.99 over %llu keys; controller\n"
              "polls every 20 us, threshold 16 misses)\n\n",
              static_cast<unsigned long long>(kKeySpace));
  std::printf("%-12s %-10s %-10s %-10s\n", "window(us)", "hits", "misses", "hit-ratio");
  sim::MetricRegistry report;
  std::vector<double> hit_pct(13, 0.0);
  for (std::size_t w = 0; w < 13; ++w) {
    const std::uint64_t h = window_hits[w];
    const std::uint64_t m = window_misses[w];
    if (h + m == 0) continue;
    const double ratio = static_cast<double>(h) / static_cast<double>(h + m);
    hit_pct[w] = 100.0 * ratio;
    std::printf("%4zu-%-7zu %-10llu %-10llu %5.1f%%\n", w * 50, (w + 1) * 50,
                static_cast<unsigned long long>(h), static_cast<unsigned long long>(m),
                100.0 * ratio);
    sim::Scope win = report.scope("window" + std::to_string(w));
    win.gauge("hits").set(static_cast<double>(h));
    win.gauge("misses").set(static_cast<double>(m));
    win.gauge("hit_ratio").set(ratio);
  }
  std::printf("\ncontroller: %llu polls, %llu keys installed; wrong values: %llu\n",
              static_cast<unsigned long long>(controller.polls()),
              static_cast<unsigned long long>(controller.installs()),
              static_cast<unsigned long long>(wrong));
  report.gauge("controller.polls").set(static_cast<double>(controller.polls()));
  report.gauge("controller.installs").set(static_cast<double>(controller.installs()));
  report.gauge("wrong_values").set(static_cast<double>(wrong));
  std::printf(
      "\nExpected shape: the first window is all misses (cold cache); as the\n"
      "controller installs hot keys the hit ratio climbs and settles near the\n"
      "zipf mass of the installed set.\n");
  bool ok = bench::reads("wrong values", "%.0f", static_cast<double>(wrong), "0");
  ok &= bench::reads("hit ratio 0-50 us (%)", "%.1f", hit_pct[0], "7.3");
  ok &= bench::reads("hit ratio 450-500 us (%)", "%.1f", hit_pct[9], "49.2");
  ok &= bench::reads("controller polls", "%.0f", static_cast<double>(controller.polls()), "35");
  ok &= bench::reads("controller installs", "%.0f", static_cast<double>(controller.installs()),
                     "48");
  const bool wrote = bench::write_report(report, "hotkey_adaptation");
  return ok && wrote ? 0 : 1;
}

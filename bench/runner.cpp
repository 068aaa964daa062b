// Multi-threaded benchmark runner (E10 companion).
//
// Fans benchmark scenarios × seeds across worker threads — each simulation
// stays single-threaded and deterministic; only *independent runs* execute
// concurrently — and emits a machine-readable JSON report (ns/op and
// events/sec) so before/after numbers can be committed and diffed
// (see BENCH_kernel.json and DESIGN.md "Simulator performance").
//
// Usage:
//   bench_runner [--quick] [--scenario NAME] [--threads N] [--repeat N]
//                [--tier-profile full|slim] [--out FILE] [--trace-out FILE]
//
// --tier-profile selects the topo::TierProfile used by the fabric
// scenarios (leaf_spine, parallel_fabric): "slim" (default) builds
// switches with shared templates + first-touch state, "full" forces the
// legacy eager build. The sweep mode additionally emits a
// construction.{build_ms,bytes_reserved,bytes_touched,templates_built,
// templates_shared,rss_bytes} series in BENCH_parallel.json.
//
// --trace-out runs one extra (untimed) leaf-spine incast with packet-span
// tracing armed on every flow and writes the Chrome trace-event JSON to
// FILE (open in ui.perfetto.dev).
//
// Scenarios: event_kernel, rmt_all_to_all, adcp_all_to_all, parser_loop,
// tm_loop, leaf_spine, control_churn, parallel_fabric (default: all).
// --scenario datapath_fastpath is special: it sweeps the per-switch flow
// cache on/off across {leaf_spine, fat_tree_4} x {steady incast, control
// churn}, self-verifies cache-on == cache-off byte equality (snapshots and
// span traces), and writes BENCH_datapath.json.
//
// --threads serves double duty: it sizes the job fan-out AND is passed
// through to scenarios, so parallel_fabric runs its sharded engine with
// that worker count (bench-smoke exercises threads=1 and threads=4). A
// comma list (--threads 1,2,4,8) instead selects the sweep mode: the
// parallel_fabric scenario runs serially once per worker count and one
// BENCH_parallel.json carries the per-thread-count series
// (parallel_fabric.t<N>.*) — the CI scaling artifact. A scenario that
// detects a broken invariant marks its sample failed, and the runner
// exits nonzero naming it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>
#ifdef __linux__
#include <unistd.h>
#endif

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "net/host.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "tm/traffic_manager.hpp"
#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "topo/network.hpp"
#include "workload/churn.hpp"
#include "workload/rack_coflow.hpp"

namespace {

using namespace adcp;
using Clock = std::chrono::steady_clock;

struct Options {
  bool quick = false;
  std::string scenario;  // empty = all
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  unsigned repeat = 3;
  std::string out = "BENCH_kernel.json";
  std::string trace_out;  // empty = no trace capture
};

/// The tier profile every fabric scenario builds with. Scenario functions
/// share a fixed signature, so the --tier-profile flag lands here once at
/// startup (before any worker thread runs) instead of threading through
/// every ScenarioFn.
topo::TierProfile g_profile{};

/// Resident set size right now (bytes); 0 where /proc is unavailable.
std::uint64_t rss_bytes_now() {
#ifdef __linux__
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long total = 0;
    unsigned long long resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &total, &resident);
    std::fclose(f);
    if (n == 2) {
      return static_cast<std::uint64_t>(resident) *
             static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    }
  }
#endif
  return 0;
}

/// One timed run: `ops` operations took `ns` nanoseconds. `ok == false`
/// flags a scenario-detected failure (lost packets, nondeterminism) that
/// must surface in the runner's exit code.
struct Sample {
  double ns = 0;
  std::uint64_t ops = 0;
  bool ok = true;
};

double now_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// --- scenarios ------------------------------------------------------------

/// Pure event-kernel churn: schedule/fire batches of events, some periodic,
/// some cancelled — the op count is events *fired*.
Sample run_event_kernel(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const int rounds = quick ? 20 : 200;
  const int batch = 1000;
  sim::Simulator sim;
  sim::Rng rng(seed);
  std::uint64_t fired = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<sim::EventHandle> cancelable;
    cancelable.reserve(batch / 4);
    for (int i = 0; i < batch; ++i) {
      const auto at = sim.now() + 1 + rng.uniform(0, 5000);
      if (i % 4 == 0) {
        cancelable.push_back(sim.at(at, [&fired] { ++fired; }));
      } else {
        sim.at(at, [&fired] { ++fired; });
      }
    }
    for (std::size_t i = 0; i < cancelable.size(); i += 2) cancelable[i].cancel();
    sim.run();
  }
  return {now_ns(t0), fired};
}

packet::IncPacketSpec spec_to_host(std::uint32_t dst_host, std::uint32_t flow,
                                   std::uint32_t seq) {
  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000000 | dst_host;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = flow;
  spec.inc.seq = seq;
  spec.inc.elements.push_back({seq, seq * 2});
  return spec;
}

/// All-to-all forwarding on an 8-port RMT switch; ops = events executed.
Sample run_rmt_all_to_all(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint32_t packets_per_pair = quick ? 5 : 40;
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 8;
  cfg.pipeline_count = 2;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  for (std::uint32_t i = 0; i < packets_per_pair; ++i) {
    for (std::uint32_t s = 0; s < 8; ++s)
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        fabric.host(s).send_inc(spec_to_host(d, s * 100 + d + seed, i));
      }
    executed += sim.run();
  }
  return {now_ns(t0), executed};
}

/// Same scenario on the ADCP switch.
Sample run_adcp_all_to_all(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint32_t packets_per_pair = quick ? 5 : 40;
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  cfg.demux_factor = 2;
  cfg.central_pipeline_count = 2;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  for (std::uint32_t i = 0; i < packets_per_pair; ++i) {
    for (std::uint32_t s = 0; s < 8; ++s)
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s == d) continue;
        fabric.host(s).send_inc(spec_to_host(d, s * 100 + d + seed, i));
      }
    executed += sim.run();
  }
  return {now_ns(t0), executed};
}

/// Parser + deparser reuse loop over the standard graph; ops = packets.
Sample run_parser_loop(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint64_t iters = quick ? 20'000 : 500'000;
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kAggUpdate;
  for (std::uint32_t i = 0; i < 16; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(seed + i), 1});
  }
  const packet::Packet pkt = packet::make_inc_packet(spec);
  packet::ParseResult pr;
  packet::Packet out;
  const auto t0 = Clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    parser.parse_into(pkt, pr);
    dep.deparse_into(pr.phv, pkt, pr.consumed, out);
    sink += out.size();
  }
  if (sink == 0) std::abort();  // defeat over-optimization
  return {now_ns(t0), iters};
}

/// Pool-fed TM enqueue/dequeue churn across 16 outputs; ops = packets.
Sample run_tm_loop(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint64_t iters = quick ? 50'000 : 1'000'000;
  tm::TmConfig cfg;
  cfg.outputs = 16;
  cfg.buffer_bytes = 1ull << 30;
  tm::TrafficManager tm(cfg);
  packet::Pool pool;
  tm.set_pool(&pool);
  packet::IncPacketSpec spec;
  for (std::uint32_t i = 0; i < 4; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(seed + i), 1});
  }
  const auto t0 = Clock::now();
  std::uint32_t out = 0;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    packet::Packet pkt = pool.acquire();
    packet::make_inc_packet_into(spec, pkt);
    tm.enqueue(out & 15, 0, std::move(pkt));
    if (auto got = tm.dequeue(out & 15)) {
      sink += got->size();
      pool.release(std::move(*got));
    }
    ++out;
  }
  if (sink == 0) std::abort();
  return {now_ns(t0), iters};
}

/// Cross-rack incast on a 2-leaf/2-spine ADCP fabric; ops = events.
Sample run_leaf_spine(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  const std::uint32_t rounds = quick ? 2 : 10;
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 8;
  p.ecmp_seed = seed;
  p.profile = g_profile;
  topo::Network net(sim, p);
  std::vector<workload::RackHost> hosts;
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  const auto t0 = Clock::now();
  std::uint64_t executed = 0;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    workload::RackIncastParams inc;
    inc.sink = r % static_cast<std::uint32_t>(hosts.size());
    inc.senders = static_cast<std::uint32_t>(hosts.size() - 1);
    inc.packets_per_sender = quick ? 4 : 16;
    inc.flow_base = 70'000 + r * 1000;
    workload::start_rack_incast(hosts, inc, sim.now());
    executed += sim.run();
    net.reset_hosts();
  }
  return {now_ns(t0), executed};
}

/// Control-plane churn end-to-end: in-band kCtrlUpdate batches from a
/// ControlAgent cross the fabric to every edge switch's VersionedStore
/// while clients issue shifting Zipf queries. Checks that every query was
/// answered and that the warmed-up stores produced hits, so a broken
/// control channel, handoff, or churn program fails the runner. ops =
/// events.
Sample run_control_churn(std::uint64_t seed, bool quick, unsigned /*threads*/) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 5;  // hosts + spines + mgmt = 8 ports -> 4 RMT pipelines
  p.kind = topo::SwitchKind::kAdcp;
  p.ecmp_seed = seed;
  p.profile = g_profile;
  p.control_channel = true;
  topo::Network net(sim, p);

  const std::size_t backing = net.host_count() - 1;
  ctrl::ControlPlane cp({}, net);
  cp.attach_all();
  ctrl::ControlAgentConfig acfg;
  acfg.period = 25 * sim::kMicrosecond;
  ctrl::ControlAgent agent(acfg, net, backing);
  agent.add_all_targets();
  agent.start();

  workload::ChurnParams wp;
  wp.backing_host = backing;
  wp.key_space = 512;
  wp.queries_per_client = quick ? 150 : 500;
  wp.shift_period = 200 * sim::kMicrosecond;
  wp.shift_step = 64;
  wp.seed = seed;
  workload::ChurnQuery churn(wp, net);
  churn.start(0);

  const sim::Time t_stop =
      wp.interval * wp.queries_per_client + 100 * sim::kMicrosecond;
  sim.at(t_stop, [&agent] { agent.stop(); });

  const auto t0 = Clock::now();
  Sample out;
  out.ops = sim.run();
  out.ns = now_ns(t0);
  if (churn.outstanding() != 0 || churn.hits() == 0) {
    std::fprintf(stderr,
                 "control_churn: outstanding=%llu hits=%llu (want 0 / >0)\n",
                 static_cast<unsigned long long>(churn.outstanding()),
                 static_cast<unsigned long long>(churn.hits()));
    out.ok = false;
  }
  return out;
}

/// The sharded engine on a 2-leaf/2-spine fabric: one cross-rack incast
/// per round, run with ParallelSimulator(threads). Checks packet
/// conservation and completion, so a silently broken barrier or mailbox
/// fails the runner instead of just skewing the numbers. ops = events.
Sample run_parallel_fabric(std::uint64_t seed, bool quick, unsigned threads) {
  const std::uint32_t rounds = quick ? 2 : 10;
  Sample out;
  const auto t0 = Clock::now();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    sim::ParallelSimulator psim(threads);
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 8;
    p.ecmp_seed = seed;
    p.profile = g_profile;
    topo::Network net(psim, p);
    std::vector<workload::RackHost> hosts;
    for (std::size_t i = 0; i < net.host_count(); ++i) {
      hosts.push_back({&net.host(i), net.ip_of(i)});
    }
    workload::RackIncastParams inc;
    inc.sink = r % static_cast<std::uint32_t>(hosts.size());
    inc.senders = static_cast<std::uint32_t>(hosts.size() - 1);
    inc.packets_per_sender = quick ? 4 : 16;
    inc.flow_base = 70'000 + r * 1000;
    workload::start_rack_incast(hosts, inc, 0);
    out.ops += psim.run();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(inc.senders) * inc.packets_per_sender;
    if (net.total_host_rx_packets() != expected ||
        net.total_host_tx_packets() !=
            net.total_host_rx_packets() + net.total_host_link_drops() +
                net.total_trunk_drops()) {
      out.ok = false;
    }
  }
  out.ns = now_ns(t0);
  return out;
}

// --- datapath fast-path sweep ----------------------------------------------

constexpr std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Cache entries the armed arm of the datapath sweep runs with.
constexpr std::uint32_t kDatapathEntries = 4096;

/// One arm of one datapath cell: a full fabric run with the flow cache
/// armed (`entries` > 0) or off, on leaf_spine 2x2x8 or fat_tree k=4,
/// driving steady repeated incast or the control-churn co-simulation.
/// `traced` arms span sampling for the byte-equality verification arms
/// (kept out of the timed arms so tracing cost never pollutes ns/op).
struct DatapathRun {
  double ns = 0;
  std::uint64_t ops = 0;  ///< events executed
  fastpath::FlowCacheStats fp;
  std::uint64_t snap_hash = 0;
  std::uint64_t trace_hash = 0;
  bool ok = true;
};

DatapathRun run_datapath_cell(bool fat_tree, bool churn_wl, std::uint32_t entries,
                              bool traced, bool quick, std::uint64_t seed) {
  sim::Simulator sim;
  topo::TierProfile prof = g_profile;
  prof.fastpath_entries = entries;
  std::unique_ptr<topo::Network> net;
  if (fat_tree) {
    topo::FatTreeParams p;
    p.k = 4;
    p.ecmp_seed = seed;
    p.profile = prof;
    p.control_channel = churn_wl;
    if (traced) p.trace.sample_every = 2;
    net = std::make_unique<topo::Network>(sim, p);
  } else {
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 8;
    p.ecmp_seed = seed;
    p.profile = prof;
    p.control_channel = churn_wl;
    if (traced) p.trace.sample_every = 2;
    net = std::make_unique<topo::Network>(sim, p);
  }

  DatapathRun r;
  if (churn_wl) {
    const std::size_t backing = net->host_count() - 1;
    ctrl::ControlPlane cp({}, *net);
    cp.attach_all();
    ctrl::ControlAgentConfig acfg;
    acfg.period = 25 * sim::kMicrosecond;
    ctrl::ControlAgent agent(acfg, *net, backing);
    agent.add_all_targets();
    agent.start();
    workload::ChurnParams wp;
    wp.backing_host = backing;
    wp.key_space = 512;
    wp.queries_per_client = quick ? 100 : 400;
    wp.shift_period = 200 * sim::kMicrosecond;
    wp.shift_step = 64;
    wp.seed = seed;
    workload::ChurnQuery churn(wp, *net);
    churn.start(0);
    const sim::Time t_stop =
        wp.interval * wp.queries_per_client + 100 * sim::kMicrosecond;
    sim.at(t_stop, [&agent] { agent.stop(); });
    const auto t0 = Clock::now();
    r.ops = sim.run();
    r.ns = now_ns(t0);
    r.ok = churn.outstanding() == 0 && churn.hits() > 0;
  } else {
    std::vector<workload::RackHost> hosts;
    for (std::size_t i = 0; i < net->host_count(); ++i) {
      hosts.push_back({&net->host(i), net->ip_of(i)});
    }
    // Every round rotates the sink and renames the flows, so a flow's first
    // packet per switch site always misses: packets_per_sender bounds the
    // achievable hit rate, and the full-size run uses a deep window so the
    // numbers reflect steady state rather than cold-start fills.
    const std::uint32_t rounds = quick ? 2 : 10;
    const auto t0 = Clock::now();
    for (std::uint32_t round = 0; round < rounds; ++round) {
      workload::RackIncastParams inc;
      inc.sink = round % static_cast<std::uint32_t>(hosts.size());
      inc.senders = static_cast<std::uint32_t>(hosts.size() - 1);
      inc.packets_per_sender = quick ? 4 : 48;
      inc.flow_base = 70'000 + round * 1000;
      workload::start_rack_incast(hosts, inc, sim.now());
      r.ops += sim.run();
      net->reset_hosts();
    }
    r.ns = now_ns(t0);
    r.ok = net->total_host_tx_packets() ==
           net->total_host_rx_packets() + net->total_host_link_drops() +
               net->total_trunk_drops();
  }
  net->finalize_metrics();
  r.fp = net->fastpath_totals();
  r.snap_hash = fnv1a(net->metrics().snapshot().to_json("pin"));
  if (traced) r.trace_hash = fnv1a(sim::spans_to_perfetto(net->span_buffers()));
  return r;
}

/// `--scenario datapath_fastpath`: cache on/off x {leaf_spine, fat_tree_4}
/// x {steady incast, control churn}, written as BENCH_datapath.json. Each
/// cell reports baseline + fastpath ns/op, hit rate, invalidations, the
/// speedup, and a self-verified `match` gauge: an extra traced off/on run
/// pair per cell must produce byte-identical snapshots AND span traces
/// (hashed), or the runner exits nonzero — the cache may only change how
/// fast the answer arrives, never the answer.
int run_datapath_bench(bool quick, unsigned repeat, const std::string& out) {
  adcp::sim::MetricRegistry report;
  report.gauge("config.quick").set(quick ? 1.0 : 0.0);
  report.gauge("config.repeat").set(static_cast<double>(repeat));
  report.gauge("config.fastpath_entries").set(static_cast<double>(kDatapathEntries));
  report.gauge("config.tier_profile_full").set(g_profile.eager_state ? 1.0 : 0.0);

  bool all_ok = true;
  for (const bool fat_tree : {false, true}) {
    const char* scale = fat_tree ? "fat_tree_4" : "leaf_spine";
    for (const bool churn_wl : {false, true}) {
      const char* wl = churn_wl ? "churn" : "steady";
      double base_ns = 0, fast_ns = 0;
      std::uint64_t base_ops = 0, fast_ops = 0;
      fastpath::FlowCacheStats fp;
      bool ok = true;
      for (unsigned r = 0; r < repeat; ++r) {
        const DatapathRun b =
            run_datapath_cell(fat_tree, churn_wl, 0, false, quick, 0x5eed0000ull + r);
        base_ns += b.ns;
        base_ops += b.ops;
        ok = ok && b.ok && b.fp.hits + b.fp.misses == 0;
      }
      for (unsigned r = 0; r < repeat; ++r) {
        const DatapathRun f = run_datapath_cell(fat_tree, churn_wl, kDatapathEntries,
                                                false, quick, 0x5eed0000ull + r);
        fast_ns += f.ns;
        fast_ops += f.ops;
        fp.hits += f.fp.hits;
        fp.misses += f.fp.misses;
        fp.invalidations += f.fp.invalidations;
        fp.evictions += f.fp.evictions;
        ok = ok && f.ok && f.fp.hits > 0;
      }
      // The equality gate: one traced run pair, same seed, off vs on.
      const DatapathRun voff =
          run_datapath_cell(fat_tree, churn_wl, 0, true, quick, 0x5eed0000ull);
      const DatapathRun von = run_datapath_cell(fat_tree, churn_wl, kDatapathEntries,
                                                true, quick, 0x5eed0000ull);
      const bool match = voff.ops == von.ops && voff.snap_hash == von.snap_hash &&
                         voff.trace_hash == von.trace_hash;
      ok = ok && match;

      const double base_ns_per_op =
          base_ops > 0 ? base_ns / static_cast<double>(base_ops) : 0.0;
      const double fast_ns_per_op =
          fast_ops > 0 ? fast_ns / static_cast<double>(fast_ops) : 0.0;
      const double speedup = fast_ns_per_op > 0 ? base_ns_per_op / fast_ns_per_op : 0.0;
      const double hit_rate =
          fp.hits + fp.misses > 0
              ? static_cast<double>(fp.hits) / static_cast<double>(fp.hits + fp.misses)
              : 0.0;
      std::printf(
          "datapath %-10s %-6s base %8.1f ns/ev fast %8.1f ns/ev speedup %5.2fx "
          "hit %5.1f%% inval %llu%s%s\n",
          scale, wl, base_ns_per_op, fast_ns_per_op, speedup, hit_rate * 100.0,
          static_cast<unsigned long long>(fp.invalidations),
          match ? "" : "  MISMATCH", ok ? "" : "  FAILED");

      adcp::sim::Scope sc = report.scope(scale).scope(wl);
      sc.gauge("baseline.ns_per_op").set(base_ns_per_op);
      adcp::sim::Scope fs = sc.scope("fastpath");
      fs.gauge("ns_per_op").set(fast_ns_per_op);
      fs.gauge("hit_rate").set(hit_rate);
      fs.gauge("invalidations").set(static_cast<double>(fp.invalidations));
      fs.gauge("evictions").set(static_cast<double>(fp.evictions));
      sc.gauge("speedup").set(speedup);
      sc.gauge("match").set(match ? 1.0 : 0.0);
      sc.gauge("ok").set(ok ? 1.0 : 0.0);
      all_ok = all_ok && ok;
    }
  }
  const bool wrote = adcp::bench::write_report(report, "datapath", out);
  if (!all_ok) std::fprintf(stderr, "datapath_fastpath reported a failed cell\n");
  return all_ok && wrote ? 0 : 1;
}

/// The --trace-out capture: one untimed 2-leaf/2-spine cross-rack incast
/// with every flow sampled, exported as Chrome trace-event JSON.
bool write_trace_capture(const std::string& path, bool quick) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 8;
  p.trace.sample_every = 1;
  topo::Network net(sim, p);
  std::vector<workload::RackHost> hosts;
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = static_cast<std::uint32_t>(hosts.size() - 1);
  inc.packets_per_sender = quick ? 4 : 16;
  workload::start_rack_incast(hosts, inc, sim.now());
  sim.run();
  const bool ok = sim::write_text_file(path, sim::spans_to_perfetto(net.span_buffers()));
  if (ok) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return ok;
}

// --- thread sweep ----------------------------------------------------------

/// `--threads 1,2,4,8` sweep mode: runs the parallel_fabric scenario once
/// per worker count, serially (concurrent samples would contend for the
/// cores being measured), and emits one BENCH_parallel.json with a
/// per-thread-count series (parallel_fabric.t<N>.{wall_ms,ns_per_op,
/// ops_per_sec,speedup,ok}) plus config.hardware_threads so readers can
/// judge the speedups against the cores that were actually available.
int run_thread_sweep(const std::vector<unsigned>& thread_counts, bool quick,
                     unsigned repeat, const std::string& out) {
  adcp::sim::MetricRegistry report;
  report.gauge("config.quick").set(quick ? 1.0 : 0.0);
  report.gauge("config.repeat").set(static_cast<double>(repeat));
  report.gauge("config.hardware_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  report.gauge("config.tier_profile_full").set(g_profile.eager_state ? 1.0 : 0.0);

  // Construction cost of the sweep's fabric under the selected profile —
  // the construction.* series satellite readers (CI smoke, E22) consume.
  {
    const std::uint64_t rss0 = rss_bytes_now();
    sim::Simulator csim;
    topo::LeafSpineParams p;
    p.leaves = 2;
    p.spines = 2;
    p.hosts_per_leaf = 8;
    p.profile = g_profile;
    topo::Network cnet(csim, p);
    adcp::sim::Scope cs = report.scope("construction");
    cnet.export_construction(cs);
    cs.gauge("rss_bytes").set(static_cast<double>(rss_bytes_now() - rss0));
    std::printf("construction(%s)  %.2f ms  reserved %llu B  touched %llu B\n",
                g_profile.name(), cnet.construction().build_ms,
                static_cast<unsigned long long>(cnet.construction().bytes_reserved),
                static_cast<unsigned long long>(cnet.construction().bytes_touched));
  }

  bool all_ok = true;
  double t1_ns_per_op = 0;
  adcp::sim::Scope sc = report.scope("parallel_fabric");
  for (const unsigned n : thread_counts) {
    double ns = 0;
    std::uint64_t ops = 0;
    bool ok = true;
    for (unsigned r = 0; r < repeat; ++r) {
      const Sample s = run_parallel_fabric(0x5eed0000ull + r, quick, n);
      ns += s.ns;
      ops += s.ops;
      ok = ok && s.ok;
    }
    const double ns_per_op = ops > 0 ? ns / static_cast<double>(ops) : 0.0;
    if (n == thread_counts.front()) t1_ns_per_op = ns_per_op;
    const double speedup = ns_per_op > 0 ? t1_ns_per_op / ns_per_op : 0.0;
    std::printf("parallel_fabric t%-2u %10.1f ns/event %8.2f ms  speedup %5.2fx%s\n",
                n, ns_per_op, ns / 1e6, speedup, ok ? "" : "  FAILED");
    adcp::sim::Scope ts = sc.scope('t' + std::to_string(n));
    ts.gauge("wall_ms").set(ns / 1e6);
    ts.gauge("ns_per_op").set(ns_per_op);
    ts.gauge("ops_per_sec").set(ns_per_op > 0 ? 1e9 / ns_per_op : 0.0);
    ts.gauge("speedup").set(speedup);
    ts.gauge("ok").set(ok ? 1.0 : 0.0);
    all_ok = all_ok && ok;
  }
  const bool wrote = adcp::bench::write_report(report, "parallel", out);
  if (!all_ok) std::fprintf(stderr, "parallel_fabric reported a failed run\n");
  return all_ok && wrote ? 0 : 1;
}

// --- harness --------------------------------------------------------------

using ScenarioFn = Sample (*)(std::uint64_t seed, bool quick, unsigned threads);

struct Scenario {
  const char* name;
  ScenarioFn fn;
  const char* unit;  ///< what one "op" is
};

constexpr Scenario kScenarios[] = {
    {"event_kernel", run_event_kernel, "event"},
    {"rmt_all_to_all", run_rmt_all_to_all, "event"},
    {"adcp_all_to_all", run_adcp_all_to_all, "event"},
    {"parser_loop", run_parser_loop, "packet"},
    {"tm_loop", run_tm_loop, "packet"},
    {"leaf_spine", run_leaf_spine, "event"},
    {"control_churn", run_control_churn, "event"},
    {"parallel_fabric", run_parallel_fabric, "event"},
};

struct Result {
  std::string name;
  std::string unit;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  std::uint64_t total_ops = 0;
  unsigned runs = 0;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--scenario NAME] [--threads N] "
               "[--repeat N] [--tier-profile full|slim] [--out FILE] "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string threads_arg;
  bool out_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.scenario = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      threads_arg = v;
      opt.threads = std::max(1, std::atoi(v));
    } else if (arg == "--repeat") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.repeat = std::max(1, std::atoi(v));
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.out = v;
      out_set = true;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.trace_out = v;
    } else if (arg == "--tier-profile") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const auto profile = topo::TierProfile::parse(v);
      if (!profile) {
        std::fprintf(stderr, "unknown --tier-profile '%s' (full | slim)\n", v);
        return 2;
      }
      g_profile = *profile;
    } else {
      return usage(argv[0]);
    }
  }

  // A comma list in --threads selects the parallel_fabric sweep mode
  // (one BENCH_parallel.json, per-thread-count series) instead of the
  // scenario × seed fan-out.
  if (threads_arg.find(',') != std::string::npos) {
    if (!opt.scenario.empty() && opt.scenario != "parallel_fabric") {
      std::fprintf(stderr, "--threads with a comma list sweeps parallel_fabric only\n");
      return 2;
    }
    std::vector<unsigned> counts;
    std::size_t start = 0;
    while (start <= threads_arg.size()) {
      const std::size_t comma = threads_arg.find(',', start);
      const std::string item = threads_arg.substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      if (!item.empty()) {
        const int n = std::atoi(item.c_str());
        if (n <= 0) return usage(argv[0]);
        counts.push_back(static_cast<unsigned>(n));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return run_thread_sweep(counts, opt.quick, opt.repeat,
                            out_set ? opt.out : "BENCH_parallel.json");
  }

  // The datapath fast-path sweep runs its own paired on/off arms and
  // equality gates; it writes BENCH_datapath.json rather than joining the
  // scenario x seed fan-out.
  if (opt.scenario == "datapath_fastpath") {
    return run_datapath_bench(opt.quick, opt.repeat,
                              out_set ? opt.out : "BENCH_datapath.json");
  }

  // Build the work list: scenario × repeat, each with its own seed.
  struct Job {
    const Scenario* sc;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  bool matched = false;
  for (const Scenario& sc : kScenarios) {
    if (!opt.scenario.empty() && opt.scenario != sc.name) continue;
    matched = true;
    for (unsigned r = 0; r < opt.repeat; ++r) {
      jobs.push_back({&sc, 0x5eed0000ull + r});
    }
  }
  if (!matched) {
    std::fprintf(stderr, "unknown scenario '%s'; known:", opt.scenario.c_str());
    for (const Scenario& sc : kScenarios) std::fprintf(stderr, " %s", sc.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  // Fan jobs across threads. Each job runs one fully independent,
  // deterministic, single-threaded simulation.
  std::mutex mu;
  std::size_t next_job = 0;
  std::vector<std::vector<Sample>> samples(std::size(kScenarios));
  auto worker = [&] {
    for (;;) {
      std::size_t j;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (next_job >= jobs.size()) return;
        j = next_job++;
      }
      const Sample s = jobs[j].sc->fn(jobs[j].seed, opt.quick, opt.threads);
      std::lock_guard<std::mutex> lk(mu);
      samples[static_cast<std::size_t>(jobs[j].sc - kScenarios)].push_back(s);
    }
  };
  const unsigned nthreads = std::min<std::size_t>(opt.threads, jobs.size());
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  // Aggregate: total ops / total ns per scenario; collect failures.
  std::vector<Result> results;
  std::vector<std::string> failed;
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    if (samples[i].empty()) continue;
    Result r;
    r.name = kScenarios[i].name;
    r.unit = kScenarios[i].unit;
    double ns = 0;
    for (const Sample& s : samples[i]) {
      ns += s.ns;
      r.total_ops += s.ops;
      if (!s.ok && (failed.empty() || failed.back() != r.name)) failed.push_back(r.name);
    }
    r.ns_per_op = ns / static_cast<double>(r.total_ops);
    r.ops_per_sec = 1e9 / r.ns_per_op;
    r.runs = static_cast<unsigned>(samples[i].size());
    results.push_back(std::move(r));
  }

  // Report: human-readable to stdout, the shared adcp-metrics-v1 JSON
  // schema (same as every bench_* binary) to --out.
  adcp::sim::MetricRegistry report;
  report.gauge("config.quick").set(opt.quick ? 1.0 : 0.0);
  report.gauge("config.threads").set(static_cast<double>(nthreads));
  report.gauge("config.repeat").set(static_cast<double>(opt.repeat));
  report.gauge("config.tier_profile_full").set(g_profile.eager_state ? 1.0 : 0.0);
  for (const Result& r : results) {
    std::printf("%-16s %10.1f ns/%s %14.0f %ss/sec (%u runs, %llu ops)\n",
                r.name.c_str(), r.ns_per_op, r.unit.c_str(), r.ops_per_sec,
                r.unit.c_str(), r.runs, static_cast<unsigned long long>(r.total_ops));
    adcp::sim::Scope sc = report.scope(r.name);
    sc.gauge("ns_per_op").set(r.ns_per_op);
    sc.gauge("ops_per_sec").set(r.ops_per_sec);
    sc.gauge("runs").set(static_cast<double>(r.runs));
    sc.gauge("total_ops").set(static_cast<double>(r.total_ops));
  }
  const bool wrote = adcp::bench::write_report(report, "kernel", opt.out);
  const bool traced = opt.trace_out.empty() || write_trace_capture(opt.trace_out, opt.quick);
  for (const std::string& name : failed) {
    std::fprintf(stderr, "scenario '%s' reported a failed run\n", name.c_str());
  }
  return failed.empty() && wrote && traced ? 0 : 1;
}

// Datapath fast path: flow-signature caching on/off (EXPERIMENTS.md E24).
//
// Sweeps the per-switch flow cache on/off across {leaf_spine, fat_tree_4}
// x {steady incast, control churn}. Each cell times repeated baseline
// (cache off) and fastpath (cache on) runs, then runs one traced off/on
// pair at a fixed seed whose event counts, snapshot bytes and span-trace
// bytes must match: the cache may only change how fast the answer
// arrives, never the answer. A cell also fails when the cache never hits,
// when the off arm probes it, or when its run breaks an invariant (packet
// conservation on steady cells, every churn query answered with some hits
// on churn cells).
//
// Output: one <scale>.<workload>.* series per cell in BENCH_datapath.json
// (baseline/fastpath ns per event, hit rate, invalidations, evictions,
// speedup, match, ok) plus a stdout table. Exit code 1 on any failed
// cell or an unwritable report.
//
// Usage: bench_datapath [--quick] [--out PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "topo/network.hpp"
#include "workload/churn.hpp"
#include "workload/rack_coflow.hpp"

namespace {

using namespace adcp;
using Clock = std::chrono::steady_clock;

double now_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
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
  topo::TierProfile prof;
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
    std::vector<workload::RackHost> hosts = workload::rack_hosts(*net);
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
  r.snap_hash = bench::fnv1a(net->metrics().snapshot().to_json("pin"));
  if (traced) r.trace_hash = bench::fnv1a(sim::spans_to_perfetto(net->span_buffers()));
  return r;
}

/// Cache on/off x {leaf_spine, fat_tree_4} x {steady incast, control
/// churn}, written as BENCH_datapath.json. Each cell reports baseline +
/// fastpath ns/op, hit rate, invalidations, the speedup, and a
/// self-verified `match` gauge: an extra traced off/on run pair per cell
/// must produce byte-identical snapshots AND span traces (hashed), or the
/// bench exits nonzero.
int run_datapath_bench(bool quick, unsigned repeat, const std::string& out) {
  sim::MetricRegistry report;
  report.gauge("config.quick").set(quick ? 1.0 : 0.0);
  report.gauge("config.repeat").set(static_cast<double>(repeat));
  report.gauge("config.fastpath_entries").set(static_cast<double>(kDatapathEntries));

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

      sim::Scope sc = report.scope(scale).scope(wl);
      sc.gauge("baseline.ns_per_op").set(base_ns_per_op);
      sim::Scope fs = sc.scope("fastpath");
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
  const bool wrote = bench::write_report(report, "datapath", out);
  if (!all_ok) std::fprintf(stderr, "FAIL: a datapath cell failed its gates\n");
  return all_ok && wrote ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  // Quick (CI smoke) times one run per arm; full runs sum three seeds.
  return run_datapath_bench(quick, quick ? 1 : 3, out);
}

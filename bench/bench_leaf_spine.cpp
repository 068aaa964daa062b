// Rack-scale coflows on a leaf–spine fabric: RMT vs ADCP tiers.
//
// Builds a 4-leaf / 2-spine / 64-host fabric out of each switch model and
// runs the two cross-rack workloads the paper motivates: a full-fabric
// incast (63 senders into one sink) and a parameter-server allreduce
// (reduce to the PS, then broadcast back) with workers spread across all
// racks. Reports coflow completion times, hop-count percentiles, trunk
// utilization, ECMP imbalance, and the reorder count (must stay 0 on this
// lossless baseline: ECMP is per-flow).
//
// With --threads the binary switches to the parallel scaling bench: each
// selected fabric (--scale takes a comma list out of leaf_spine |
// leaf_spine_2k | fat_tree_4 | fat_tree_8) runs the PS-allreduce once on
// the monolithic simulator, once sharded at --threads 1 (the par-vs-par
// reference, whose measured per-shard busy_ns feed the LPT packer for the
// wider runs), and once per remaining entry of the --threads comma list.
// Every run must complete the allreduce and conserve packets (host tx ==
// host rx + host-link drops + trunk drops), and is checked against the
// determinism contract (final time + snapshot hash vs monolithic, exact
// event count vs threads=1, event skew vs monolithic <= 16).
// BENCH_parallel.json gets a per-thread-count series
// (<scale>.t<N>.{wall_ms,speedup,events,determinism.match}) next to the
// headline <scale>.speedup row (the widest thread count).
//
// --trace-out PATH arms packet-span tracing (every flow sampled) and
// writes the merged Chrome trace-event JSON there (open in
// ui.perfetto.dev). The legacy two-tier bench traces the ADCP fabric; the
// parallel bench traces both engines, folds "trace bytes identical" into
// the determinism verdict, writes the sharded run's trace, and drops the
// PDES busy/barrier self-profile next to it as PATH.pdes.json.
//
// The parallel bench also measures construction itself per scale — one
// traffic-free build, wall-clock + RSS + byte accounting — as the
// <scale>.construction.{build_ms,rss_bytes,bytes_reserved,bytes_touched,
// stages_declared,stages_materialized,templates_built,templates_shared}
// series in BENCH_parallel.json.
//
// Exit codes: 0 on success, 1 when a run fails a gate or the report or a
// trace cannot be written, 2 on a bad command line.
//
// Usage: bench_leaf_spine [--quick] [--out PATH] [--trace-out PATH]
//                         [--scale S1,S2,...] [--threads N1,N2,...]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "bench_report.hpp"
#include "coflow/tracker.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "topo/network.hpp"
#include "workload/rack_coflow.hpp"

namespace {

using namespace adcp;

struct FabricResult {
  double incast_cct_us = 0;
  double reduce_cct_us = 0;
  double bcast_cct_us = 0;
  double allreduce_total_us = 0;
  double hops_p50 = 0;
  double hops_max = 0;
  double ecmp_imbalance = 0;
  double trunk_max_util = 0;
  std::uint64_t reordered = 0;
  std::uint64_t host_tx = 0;
  std::uint64_t host_rx = 0;
  std::uint64_t drops = 0;
  std::uint64_t events = 0;
  bool allreduce_complete = false;
  bool trace_written = true;  ///< false when the requested trace could not be written
};

FabricResult run_fabric(topo::SwitchKind kind, bool quick, const std::string& trace_out) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 4;
  p.spines = 2;
  p.hosts_per_leaf = 16;
  p.kind = kind;
  if (!trace_out.empty()) p.trace.sample_every = 1;
  topo::Network net(sim, p);
  std::vector<workload::RackHost> hosts = workload::rack_hosts(net);

  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  FabricResult r;

  // Phase 1: every other host of every rack funnels into host 0.
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = static_cast<std::uint32_t>(net.host_count() - 1);
  inc.packets_per_sender = quick ? 8 : 64;
  tracker.start(workload::rack_incast_descriptor(inc, hosts.size()), sim.now());
  workload::start_rack_incast(hosts, inc, sim.now());
  r.events += sim.run();
  r.incast_cct_us =
      static_cast<double>(tracker.record(inc.coflow_id)->completion_time()) / 1e6;

  // Phase 2: PS allreduce, 16 workers spread 4-per-rack, PS in rack 0.
  net.reset_hosts();
  workload::RackAllReduceParams ar;
  ar.ps = 0;
  for (std::uint32_t w = 0; w < 16; ++w) {
    ar.workers.push_back((w % p.leaves) * p.hosts_per_leaf + 1 + w / p.leaves);
  }
  ar.vector_len = quick ? 64 : 512;
  workload::RackAllReduce allreduce(ar);
  allreduce.attach(hosts, sim, &tracker);
  const sim::Time ar_start = sim.now();
  allreduce.start(ar_start);
  r.events += sim.run();
  r.allreduce_complete = allreduce.complete();
  if (r.allreduce_complete) {
    r.reduce_cct_us =
        static_cast<double>(tracker.record(ar.reduce_coflow)->completion_time()) / 1e6;
    r.bcast_cct_us =
        static_cast<double>(tracker.record(ar.bcast_coflow)->completion_time()) / 1e6;
    r.allreduce_total_us =
        static_cast<double>(tracker.record(ar.bcast_coflow)->finish.value() - ar_start) / 1e6;
  } else {
    // The broadcast coflow never started, so it has no record to read.
    std::fprintf(stderr, "allreduce did not complete!\n");
  }

  net.finalize_metrics();
  r.hops_p50 = net.hops().quantile(0.5);
  r.hops_max = net.hops().quantile(1.0);
  r.ecmp_imbalance = net.scope().gauge("ecmp.imbalance").value();
  r.trunk_max_util = net.scope().gauge("trunk.max_utilization").value();
  r.host_tx = net.total_host_tx_packets();
  r.host_rx = net.total_host_rx_packets();
  r.drops = net.total_host_link_drops() + net.total_trunk_drops();
  for (std::size_t i = 0; i < net.host_count(); ++i) r.reordered += net.host(i).rx_reordered();
  if (!trace_out.empty()) {
    r.trace_written =
        adcp::bench::write_trace(trace_out, sim::spans_to_perfetto(net.span_buffers()));
  }
  return r;
}

// --- parallel scaling bench ------------------------------------------------

struct ScaleResult {
  std::uint64_t events = 0;
  sim::Time now = 0;
  std::uint64_t hash = 0;
  double wall_ms = 0;
  bool complete = false;
  std::uint64_t host_tx = 0;
  std::uint64_t host_rx = 0;
  std::uint64_t drops = 0;  ///< host-link + trunk drops
  std::string trace;       ///< Perfetto JSON when tracing was requested
  std::string pdes_trace;  ///< PDES busy/barrier profile (parallel only)
  sim::Snapshot pdes;      ///< engine self-profile metrics (parallel only)
};

workload::RackAllReduceParams scale_allreduce(std::size_t host_count, bool quick) {
  workload::RackAllReduceParams ar;
  ar.ps = 0;
  for (std::uint32_t w = 1; w < host_count; ++w) ar.workers.push_back(w);
  ar.vector_len = quick ? 64 : 512;
  return ar;
}

/// Runs the PS-allreduce on `net`, timing sim-run wall clock. `run` drives
/// whichever engine owns the network; `ps_sim` is where the PS's data-
/// driven broadcast must be scheduled from. The caller fills now/hash
/// afterwards (they come from the engine, which this helper cannot see).
template <typename RunFn>
ScaleResult run_scale(topo::Network& net, sim::Simulator& ps_sim, bool quick, RunFn run) {
  std::vector<workload::RackHost> hosts = workload::rack_hosts(net);
  workload::RackAllReduce allreduce(scale_allreduce(hosts.size(), quick));
  allreduce.attach(hosts, ps_sim);
  allreduce.start(0);
  ScaleResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.events = run();
  r.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  r.complete = allreduce.complete();
  r.host_tx = net.total_host_tx_packets();
  r.host_rx = net.total_host_rx_packets();
  r.drops = net.total_host_link_drops() + net.total_trunk_drops();
  net.finalize_metrics();
  r.hash = bench::fnv1a(net.merged_snapshot().to_json("scale"));
  if (net.trace_config().enabled()) {
    r.trace = sim::spans_to_perfetto(net.span_buffers());
  }
  return r;
}

template <typename Params>
ScaleResult run_scale_monolithic(Params p, bool quick, bool trace) {
  if (trace) p.trace.sample_every = 1;
  sim::Simulator sim;
  topo::Network net(sim, p);
  ScaleResult r = run_scale(net, sim, quick, [&] { return sim.run(); });
  r.now = sim.now();
  return r;
}

/// `weights` (when non-null) overrides the topology's static shard-weight
/// estimate with a measured cost model (a previous run's shard_busy_ns);
/// `busy_out` (when non-null) receives this run's measured busy times.
template <typename Params>
ScaleResult run_scale_parallel(Params p, bool quick, unsigned threads, bool trace,
                               const std::vector<double>* weights = nullptr,
                               std::vector<double>* busy_out = nullptr) {
  if (trace) p.trace.sample_every = 1;
  sim::ParallelSimulator psim(threads);
  if (trace) psim.enable_profile_spans();
  topo::Network net(psim, p);
  if (weights != nullptr && weights->size() == psim.shard_count()) {
    psim.set_shard_weights(*weights);
  }
  ScaleResult r = run_scale(net, net.sim_of_host(0), quick, [&] { return psim.run(); });
  r.now = psim.now();
  r.pdes = psim.metrics().snapshot();
  if (busy_out != nullptr) *busy_out = psim.shard_busy_ns();
  if (trace) {
    // Wall-clock ns, not simulated ps: 1e-3 puts the track in microseconds.
    r.pdes_trace = sim::spans_to_perfetto(psim.profile_span_buffers(), 1e-3);
  }
  return r;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// --- construction cost -----------------------------------------------------

/// Resident set size right now, from /proc/self/statm (0 off Linux).
/// Register-file backing stores are >128 KB so glibc mmaps them; RSS
/// deltas around a Network's lifetime are therefore honest in both
/// directions (freed memory actually leaves the process).
double rss_bytes_now() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long long total = 0;
  long long resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

/// Builds the fabric (no traffic) and records what construction cost:
/// <scope>.{build_ms, rss_bytes, bytes_reserved, bytes_touched,
/// stages_declared, stages_materialized, templates_built, templates_shared}.
template <typename Params>
void bench_construction(sim::Scope scope, const Params& p) {
  const double rss0 = rss_bytes_now();
  sim::Simulator sim;
  topo::Network net(sim, p);
  const double rss = std::max(0.0, rss_bytes_now() - rss0);
  const auto& c = net.construction();
  net.export_construction(scope);
  scope.gauge("rss_bytes").set(rss);
  std::printf("  build: %8.2f ms  rss %8.1f MB  touched %8.1f MB"
              "  (reserved %.1f MB, %llu of %llu stages built, %llu templates, %llu shared)\n",
              c.build_ms, rss / 1e6, static_cast<double>(c.bytes_touched) / 1e6,
              static_cast<double>(c.bytes_reserved) / 1e6,
              static_cast<unsigned long long>(c.stages_materialized),
              static_cast<unsigned long long>(c.stages_declared),
              static_cast<unsigned long long>(c.templates_built),
              static_cast<unsigned long long>(c.templates_shared));
}

/// Mono-vs-sharded executed-event skew beyond this is a real divergence
/// (lost or duplicated packets move it by hundreds), not wake coalescing.
constexpr std::uint64_t kMaxEventSkew = 16;

int run_parallel_bench(const std::string& scale_csv, const std::string& threads_csv,
                       bool quick, const std::string& out, const std::string& trace_out) {
  const std::vector<std::string> scales = split_csv(scale_csv);
  std::vector<unsigned> thread_counts;
  for (const std::string& t : split_csv(threads_csv)) {
    const int n = std::atoi(t.c_str());
    if (n <= 0) {
      std::fprintf(stderr, "bad --threads entry '%s'\n", t.c_str());
      return 2;
    }
    thread_counts.push_back(static_cast<unsigned>(n));
  }
  const bool trace = !trace_out.empty();

  sim::MetricRegistry report;
  report.gauge("config.quick").set(quick ? 1.0 : 0.0);
  report.gauge("config.threads").set(static_cast<double>(thread_counts.back()));
  // Speedup numbers are only meaningful relative to the cores that were
  // actually available; CI gates read this before trusting them.
  report.gauge("config.hardware_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  report.gauge("config.git_sha").set(adcp::bench::git_sha());

  bool all_ok = true;
  sim::Snapshot pdes_snap;  // last scale's widest run (single-scale compat)

  // Tracing determinism compares the sharded engine against itself at
  // --threads 1, not against the monolithic run: sequential-vs-sharded
  // same-tick ties may legally interleave differently (see
  // ParallelSimulator::run()), which per-packet spans expose even though
  // every aggregate metric agrees.
  const auto bench_one = [&](const std::string& scale, auto p) {
    std::printf("construction: %s\n", scale.c_str());
    bench_construction(report.scope(scale).scope("construction"), p);
    const ScaleResult mono = run_scale_monolithic(p, quick, trace);
    // threads=1 first: the par-vs-par reference AND the measured cost
    // model — its per-shard busy_ns feed set_shard_weights for every
    // multi-worker run of the same topology.
    std::vector<double> busy;
    const ScaleResult par1 = run_scale_parallel(p, quick, 1, trace, nullptr, &busy);

    // The executed-event skew is a deterministic constant of the
    // scenario (same-tick wake coalescing under the sharded tie order —
    // see test_parallel_sim); gate it instead of silently diverging.
    const std::uint64_t skew = par1.events > mono.events ? par1.events - mono.events
                                                         : mono.events - par1.events;
    const bool skew_ok = skew <= kMaxEventSkew;

    std::printf("parallel scaling: %s allreduce (%llu mono events, skew %llu)\n",
                scale.c_str(), static_cast<unsigned long long>(mono.events),
                static_cast<unsigned long long>(skew));
    std::printf("  monolithic: %8.2f ms\n", mono.wall_ms);

    sim::Scope s = report.scope(scale);
    s.gauge("monolithic.wall_ms").set(mono.wall_ms);
    s.gauge("monolithic.events").set(static_cast<double>(mono.events));
    s.gauge("events.skew").set(static_cast<double>(skew));

    // Every run, the 1-worker reference included, must finish the
    // allreduce and account for every packet a host sent.
    const auto run_ok = [&scale](const std::string& run, const ScaleResult& r) {
      if (!r.complete) {
        std::fprintf(stderr, "%s %s: allreduce did not complete!\n", scale.c_str(),
                     run.c_str());
      }
      const bool conserved = r.host_tx == r.host_rx + r.drops;
      if (!conserved) {
        std::fprintf(stderr, "%s %s: host tx %llu != host rx %llu + drops %llu\n",
                     scale.c_str(), run.c_str(), static_cast<unsigned long long>(r.host_tx),
                     static_cast<unsigned long long>(r.host_rx),
                     static_cast<unsigned long long>(r.drops));
      }
      return r.complete && conserved;
    };
    const bool mono_ok = run_ok("monolithic", mono);
    const bool par1_ok = run_ok("t1", par1);
    bool scale_ok = skew_ok && mono_ok && par1_ok;
    ScaleResult widest;
    for (const unsigned n : thread_counts) {
      const ScaleResult par =
          n == 1 ? par1 : run_scale_parallel(p, quick, n, trace, &busy, nullptr);
      const bool par_ok = n == 1 ? par1_ok : run_ok('t' + std::to_string(n), par);
      const bool trace_match = !trace || par.trace == par1.trace;
      const bool deterministic = mono.now == par.now && mono.hash == par.hash &&
                                 par.events == par1.events && trace_match;
      const double speedup = par.wall_ms > 0 ? mono.wall_ms / par.wall_ms : 0.0;
      std::printf("  t%-2u:        %8.2f ms  speedup %5.2fx  %s\n", n, par.wall_ms,
                  speedup, deterministic ? "match" : "DIVERGE");
      sim::Scope ts = s.scope('t' + std::to_string(n));
      ts.gauge("wall_ms").set(par.wall_ms);
      ts.gauge("speedup").set(speedup);
      ts.gauge("events").set(static_cast<double>(par.events));
      ts.gauge("determinism.match").set(deterministic ? 1.0 : 0.0);
      if (trace) ts.gauge("determinism.trace_match").set(trace_match ? 1.0 : 0.0);
      scale_ok = scale_ok && deterministic && par_ok;
      if (n == thread_counts.back()) {
        // Headline row (what the CI speedup floor reads) + the legacy
        // single-threads-value schema, kept at the widest configuration.
        s.gauge("parallel.wall_ms").set(par.wall_ms);
        s.gauge("parallel.events").set(static_cast<double>(par.events));
        s.gauge("speedup").set(speedup);
        s.gauge("determinism.match").set(scale_ok ? 1.0 : 0.0);
        widest = par;
      }
    }
    if (!skew_ok) {
      std::fprintf(stderr, "%s: event skew %llu exceeds %llu\n", scale.c_str(),
                   static_cast<unsigned long long>(skew),
                   static_cast<unsigned long long>(kMaxEventSkew));
    }

    if (trace) {
      // Multi-scale sweeps suffix the file; a single scale keeps the
      // exact path (what trace_smoke and the CI artifact glob expect).
      const std::string path =
          scales.size() == 1 ? trace_out : trace_out + "." + scale;
      const bool wrote_trace = adcp::bench::write_trace(path, widest.trace);
      const bool wrote_pdes = adcp::bench::write_trace(path + ".pdes.json", widest.pdes_trace);
      all_ok = all_ok && wrote_trace && wrote_pdes;
    }
    pdes_snap = widest.pdes;
    all_ok = all_ok && scale_ok;
  };

  for (const std::string& scale : scales) {
    if (scale == "leaf_spine") {
      topo::LeafSpineParams p;
      p.leaves = 4;
      p.spines = 2;
      p.hosts_per_leaf = 16;
      bench_one(scale, p);
    } else if (scale == "leaf_spine_2k") {
      // The thousands-of-hosts configuration: 32 racks x 64 hosts = 2048
      // hosts behind 16 spines — 80 shards once hosts split off.
      topo::LeafSpineParams p;
      p.leaves = 32;
      p.spines = 16;
      p.hosts_per_leaf = 64;
      bench_one(scale, p);
    } else if (scale == "fat_tree_4") {
      topo::FatTreeParams p;
      p.k = 4;
      bench_one(scale, p);
    } else if (scale == "fat_tree_8") {
      topo::FatTreeParams p;
      p.k = 8;
      bench_one(scale, p);
    } else {
      std::fprintf(stderr,
                   "unknown --scale '%s' "
                   "(leaf_spine | leaf_spine_2k | fat_tree_4 | fat_tree_8)\n",
                   scale.c_str());
      return 2;
    }
  }

  // Fold the engine's self-profile (pdes.shard<i>.busy_ns/idle_ns/
  // horizon_wait_ns, pdes.mailbox.occupancy) into the report — only for a
  // single-scale invocation, where the shard indices are unambiguous. The
  // wall-clock values are nondeterministic, which is fine here — wall_ms
  // is too.
  sim::Snapshot snap = report.snapshot();
  if (scales.size() == 1) snap.merge(pdes_snap);
  const bool wrote = adcp::bench::write_report(snap, "parallel", out);
  return all_ok && wrote ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out;
  std::string trace_out;
  std::string scale = "leaf_spine";
  std::string threads;  // empty = legacy two-tier bench, no parallel engine
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--trace-out PATH] "
                   "[--scale S1,S2,...] [--threads N1,N2,...]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!threads.empty() && threads != "0") {
    return run_parallel_bench(scale, threads, quick, out, trace_out);
  }

  std::printf("leaf–spine fabric (4 leaves x 16 hosts, 2 spines): cross-rack coflows\n\n");
  std::printf("%-6s %-14s %-12s %-12s %-14s %-10s %-10s %-10s %-10s\n", "tier",
              "incast CCT us", "reduce us", "bcast us", "allreduce us", "hops p50",
              "ecmp imb", "max util", "reordered");

  sim::MetricRegistry report;
  const struct {
    const char* name;
    topo::SwitchKind kind;
  } tiers[] = {{"rmt", topo::SwitchKind::kRmt}, {"adcp", topo::SwitchKind::kAdcp}};
  bool conserved = true;
  bool complete = true;
  bool traced = true;
  for (const auto& tier : tiers) {
    // Only the ADCP tier (the paper's subject) gets traced in legacy mode.
    const bool adcp_tier = tier.kind == topo::SwitchKind::kAdcp;
    const FabricResult r = run_fabric(tier.kind, quick, adcp_tier ? trace_out : "");
    std::printf("%-6s %-14.2f %-12.2f %-12.2f %-14.2f %-10.1f %-10.3f %-10.3f %-10llu\n",
                tier.name, r.incast_cct_us, r.reduce_cct_us, r.bcast_cct_us,
                r.allreduce_total_us, r.hops_p50, r.ecmp_imbalance, r.trunk_max_util,
                static_cast<unsigned long long>(r.reordered));
    conserved = conserved && (r.host_tx == r.host_rx + r.drops);
    complete = complete && r.allreduce_complete;
    traced = traced && r.trace_written;
    sim::Scope s = report.scope(tier.name);
    s.gauge("incast.cct_us").set(r.incast_cct_us);
    s.gauge("allreduce.reduce_cct_us").set(r.reduce_cct_us);
    s.gauge("allreduce.bcast_cct_us").set(r.bcast_cct_us);
    s.gauge("allreduce.total_us").set(r.allreduce_total_us);
    s.gauge("hops.p50").set(r.hops_p50);
    s.gauge("hops.max").set(r.hops_max);
    s.gauge("ecmp.imbalance").set(r.ecmp_imbalance);
    s.gauge("trunk.max_utilization").set(r.trunk_max_util);
    s.gauge("rx.reordered").set(static_cast<double>(r.reordered));
    s.gauge("host.tx_packets").set(static_cast<double>(r.host_tx));
    s.gauge("host.rx_packets").set(static_cast<double>(r.host_rx));
    s.gauge("events").set(static_cast<double>(r.events));
  }

  std::printf(
      "\nExpected shape: cross-rack packets take 3 switch hops (p50 with the\n"
      "incast sink in rack 0 stays 3), reordered == 0 (per-flow ECMP), and\n"
      "tx == rx (lossless conservation%s). ADCP pays its central-pipe traversal\n"
      "on every hop; RMT routes in the ingress pipes.\n",
      conserved ? ": holds" : ": VIOLATED");
  const bool wrote = adcp::bench::write_report(report, "leaf_spine", out);
  return conserved && complete && traced && wrote ? 0 : 1;
}

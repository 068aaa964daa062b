// In-band telemetry observatory: INT stamping, postcards, heavy hitters
// (EXPERIMENTS.md E25).
//
// A skewed incast (a few heavy flows over a long tail of light ones, all
// funneling into host 0) runs on small-buffer fabrics so the TMs actually
// drop and CE-mark, and the sweep crosses switch architecture x telemetry
// mode x topology:
//
//   off    — telemetry disarmed. Run twice, once with the default
//            TelemetryProfile and once with every knob tweaked but
//            armed=false; the two merged snapshots must be byte-identical
//            (the "disarmed leaves no trace" gate, off.match).
//   int    — INT hop stamping + postcards + sampled reports to the
//            collector riding the last host.
//   sketch — int plus the PRECISION-style heavy-hitter program
//            (recirculating claims on RMT, single-pass on ADCP/RTC),
//            scored against the sink-leaf tap's exact flow ledger.
//
// Armed runs are re-executed on the sharded engine at 1/2/4/8 workers and
// every merged snapshot must hash identically to the sequential run
// (determinism.match) — stamping is a pure function of simulator state.
// The INT simulator overhead (wall ns per packet delivered to the sink,
// int vs off) is reported per architecture as int_overhead_pct, and the
// same ratio per executed event as int_overhead_per_event_pct.
//
// --trace-out writes a Perfetto trace of the ADCP int run with one counter
// track per switch TM high-watermark gauge ("sw<i>.tm.watermark_bytes")
// next to the sampled packet spans.
//
// Output: BENCH_telemetry.json with one <arch>.<mode>.<topo>.* series per
// cell. Exit code gates off.match == 1, determinism.match == 1, reports
// flowing, and sketch recall >= 0.9 on every sketch cell; it is also 1 when
// the report or the trace cannot be written.
//
// Usage: bench_telemetry [--quick] [--out PATH] [--trace-out PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "telem/collector.hpp"
#include "telem/sketch.hpp"
#include "telem/tap.hpp"
#include "topo/network.hpp"

namespace {

using namespace adcp;

enum class Mode { kOff, kInt, kSketch };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kInt: return "int";
    case Mode::kSketch: return "sketch";
  }
  return "?";
}

/// Heavy flows get this many packets; light flows a trickle. The gap is
/// wide enough that the sketch's top-k is unambiguous.
struct WorkloadShape {
  std::uint32_t flows_per_sender = 4;
  std::uint32_t heavy_senders = 8;  ///< first flow of the first N senders is heavy
  std::uint32_t heavy_pkts = 0;
  std::uint32_t light_pkts = 0;
  std::uint32_t elems = 4;
};

WorkloadShape shape(bool quick) {
  WorkloadShape w;
  w.heavy_pkts = quick ? 30 : 120;
  w.light_pkts = quick ? 3 : 8;
  return w;
}

/// The telemetry arm of the profile per mode. `tweak` perturbs every knob
/// that must be inert while armed == false (the off.match gate's B arm).
telem::TelemetryProfile telemetry_profile(Mode mode, bool tweak) {
  telem::TelemetryProfile t;
  if (mode == Mode::kOff) {
    if (tweak) {
      t.max_hops = 2;
      t.report_sample_every = 9;
      t.postcard_min_gap = 0;
      t.sketch = true;
      t.sketch_ways = 4;
      t.seed = 0xdead'beef;
    }
    return t;
  }
  t.armed = true;
  t.report_sample_every = 2;  // 1-in-2 flows report (deterministic hash)
  t.postcard_min_gap = 100 * sim::kNanosecond;
  if (mode == Mode::kSketch) {
    // 4 ways x 8 slots: 32 entries for ~56 offered flows, and four
    // candidate rows per key so a heavy flow is never locked out by slot
    // collisions with other heavies.
    t.sketch = true;
    t.sketch_ways = 4;
    t.sketch_slots = 8;
  }
  return t;
}

/// Every cell shares the same data-plane provisioning: no flow fast path
/// (the sketch program vouches no contract, so keeping it off everywhere
/// makes the modes comparable) and TMs small enough that the incast
/// congests — drops feed the postcard ledger, CE marks the ECN one.
topo::TierProfile tier_profile(Mode mode, bool tweak = false) {
  topo::TierProfile p;
  p.fastpath_entries = 0;
  p.rmt_base.tm_buffer_bytes = 24 << 10;
  p.rmt_base.ecn_threshold_bytes = 4 << 10;
  p.adcp_base.tm1_buffer_bytes = 24 << 10;
  p.adcp_base.tm2_buffer_bytes = 24 << 10;
  p.adcp_base.ecn_threshold_bytes = 4 << 10;
  p.telemetry = telemetry_profile(mode, tweak);
  return p;
}

/// Skewed incast into host 0. The last host never sends — it is the
/// collector when telemetry is armed, and keeping it idle in every mode
/// keeps the offered load identical across cells.
void start_incast(topo::Network& net, const WorkloadShape& w) {
  std::uint32_t sender_index = 0;
  for (std::size_t h = 1; h + 1 < net.host_count(); ++h, ++sender_index) {
    for (std::uint32_t f = 0; f < w.flows_per_sender; ++f) {
      const std::uint32_t flow_id =
          static_cast<std::uint32_t>(h) * w.flows_per_sender + f;
      const bool heavy = f == 0 && sender_index < w.heavy_senders;
      packet::IncPacketSpec spec;
      spec.ip_src = net.ip_of(h);
      spec.ip_dst = net.ip_of(0);
      spec.udp_src = static_cast<std::uint16_t>(40'000 + flow_id);
      spec.inc.opcode = packet::IncOpcode::kPlain;
      spec.inc.flow_id = flow_id;
      spec.inc.coflow_id = 1;
      spec.inc.worker_id = static_cast<std::uint32_t>(h);
      const std::uint32_t n = heavy ? w.heavy_pkts : w.light_pkts;
      for (std::uint32_t s = 0; s < n; ++s) {
        spec.inc.seq = s;
        spec.inc.elements.clear();
        for (std::uint32_t e = 0; e < w.elems; ++e) {
          spec.inc.elements.push_back({s * w.elems + e, flow_id});
        }
        net.host(h).send_inc(spec, 0);
      }
    }
  }
}

struct CellResult {
  std::uint64_t events = 0;
  double wall_ms = 0;
  double ns_per_op = 0;
  double ns_per_pkt = 0;  ///< wall ns per packet delivered to the sink
  sim::Time now = 0;
  std::uint64_t hash = 0;
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t sink_rx = 0;  ///< host 0 only: total rx also counts reports
  // Telemetry view (zero in off mode).
  std::uint64_t stamps = 0;
  std::uint64_t stamp_bytes = 0;
  std::uint64_t reports = 0;
  std::uint64_t report_hops = 0;
  std::uint64_t postcards = 0;
  std::uint64_t truncated = 0;
  std::uint64_t drops_attributed = 0;
  std::uint64_t paths = 0;
  double depth_exact_mean = 0;
  double depth_est_mean = 0;
  double recall = 0;
  double precision = 0;
};

/// The number of heavy flows = the scoring k (one heavy flow per heavy
/// sender by construction).
std::size_t score_k(const WorkloadShape& w) { return w.heavy_senders; }

template <typename Params>
CellResult run_once(const Params& p0, Mode mode, const WorkloadShape& w) {
  Params p = p0;
  p.profile = tier_profile(mode);
  sim::Simulator sim;
  topo::Network net(sim, p);
  start_incast(net, w);
  CellResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.events = sim.run();
  r.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  net.finalize_metrics();
  r.ns_per_op = r.events > 0 ? r.wall_ms * 1e6 / static_cast<double>(r.events) : 0.0;
  r.now = sim.now();
  r.hash = bench::fnv1a(net.merged_snapshot().to_json("telem"));
  r.tx = net.total_host_tx_packets();
  r.rx = net.total_host_rx_packets();
  r.sink_rx = net.host(0).rx_packets();
  r.ns_per_pkt = r.sink_rx > 0 ? r.wall_ms * 1e6 / static_cast<double>(r.sink_rx) : 0.0;

  if (net.telemetry_armed()) {
    // Switch 0 is the sink's leaf: every delivered packet crossed it, so
    // its tap holds the complete ground truth.
    telem::TelemetryTap& tap = *net.telemetry_tap_of(0);
    telem::Collector& col = *net.collector();
    r.stamps = tap.stamps();
    r.stamp_bytes = tap.stamp_bytes();
    r.reports = col.reports();
    r.report_hops = col.report_hops();
    r.postcards = col.postcards();
    r.truncated = col.truncated();
    r.drops_attributed = col.drops_total();
    r.paths = col.paths().size();
    r.depth_exact_mean = tap.exact_depth().mean();
    r.depth_est_mean = col.depth_estimate(0);
    if (telem::HeavyHitterSketch* sk = net.sketch_of(0)) {
      const telem::SketchScore score =
          telem::score_heavy_hitters(*sk, tap.flow_truth(), score_k(w));
      r.recall = score.recall;
      r.precision = score.precision;
    }
  }
  return r;
}

/// One warm-up pass (allocator arenas, code caches) then best-of-N
/// measured passes — min wall clock is the standard noise-robust
/// estimator, and these cells are only tens of ms, so a single stray
/// scheduler preemption would otherwise swing the int-vs-off overhead
/// figure by double digits. Every pass doubles as a sequential
/// repeatability check (same final time, same snapshot bytes).
template <typename Params>
CellResult run_sequential(const Params& p, Mode mode, const WorkloadShape& w,
                          bool* repeat_ok, int measured_passes) {
  const CellResult warm = run_once(p, mode, w);
  CellResult best = run_once(p, mode, w);
  *repeat_ok = warm.now == best.now && warm.hash == best.hash;
  for (int i = 1; i < measured_passes; ++i) {
    const CellResult r = run_once(p, mode, w);
    *repeat_ok = *repeat_ok && r.now == best.now && r.hash == best.hash;
    if (r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

/// Re-runs a cell with span tracing and a 2 us TM-watermark sampler armed,
/// bounded by the measured run's completion time (the sampler's periodic
/// tick would otherwise keep the event queue alive forever), and writes
/// the Perfetto JSON: packet spans plus one counter track per switch TM
/// high-water gauge. RMT has one TM; on ADCP the egress-side TM2 is the
/// queue INT stamps. Returns false when the file cannot be written.
template <typename Params>
bool export_trace(Params p, Mode mode, const WorkloadShape& w, sim::Time deadline,
                  const std::string& path) {
  p.profile = tier_profile(mode);
  p.trace.sample_every = 16;
  sim::Simulator sim;
  topo::Network net(sim, p);
  sim::TimeSeriesSampler sampler(sim, 2 * sim::kMicrosecond);
  for (std::size_t i = 0; i < net.switch_count(); ++i) {
    const char* tm = net.kind_of(i) == topo::SwitchKind::kRmt ? "tm" : "tm2";
    sampler.add_gauge("sw" + std::to_string(i) + ".tm.watermark_bytes",
                      net.switch_scope(i).scope(tm).watermark("buffer.watermark_bytes"));
  }
  sampler.start();
  start_incast(net, w);
  sim.run_until(deadline);
  sampler.stop();
  return bench::write_trace(
      path, sim::spans_to_perfetto(net.span_buffers(), sampler.counter_series(), 1e-6));
}

/// One sharded run; returns (final time, snapshot hash) for the pin.
template <typename Params>
std::pair<sim::Time, std::uint64_t> run_parallel_pin(Params p, Mode mode,
                                                     const WorkloadShape& w,
                                                     unsigned threads) {
  p.profile = tier_profile(mode);
  sim::ParallelSimulator psim(threads);
  topo::Network net(psim, p);
  start_incast(net, w);
  psim.run();
  net.finalize_metrics();
  return {psim.now(), bench::fnv1a(net.merged_snapshot().to_json("telem"))};
}

/// The off.match gate: default-profile vs tweaked-knobs disarmed builds
/// must produce byte-identical snapshots at the same final time.
template <typename Params>
bool off_byte_equal(Params p, const WorkloadShape& w, const CellResult& baseline) {
  p.profile = tier_profile(Mode::kOff, /*tweak=*/true);
  sim::Simulator sim;
  topo::Network net(sim, p);
  start_incast(net, w);
  sim.run();
  net.finalize_metrics();
  return sim.now() == baseline.now &&
         bench::fnv1a(net.merged_snapshot().to_json("telem")) == baseline.hash;
}

void export_cell(sim::Scope s, const CellResult& r, Mode mode) {
  s.gauge("events").set(static_cast<double>(r.events));
  s.gauge("wall_ms").set(r.wall_ms);
  s.gauge("ns_per_op").set(r.ns_per_op);
  s.gauge("ns_per_pkt").set(r.ns_per_pkt);
  s.gauge("host.tx_packets").set(static_cast<double>(r.tx));
  s.gauge("host.rx_packets").set(static_cast<double>(r.rx));
  s.gauge("sink.rx_packets").set(static_cast<double>(r.sink_rx));
  if (mode == Mode::kOff) return;
  s.gauge("stamps").set(static_cast<double>(r.stamps));
  s.gauge("stamp_bytes").set(static_cast<double>(r.stamp_bytes));
  s.gauge("reports").set(static_cast<double>(r.reports));
  s.gauge("report_hops").set(static_cast<double>(r.report_hops));
  s.gauge("postcards").set(static_cast<double>(r.postcards));
  s.gauge("truncated").set(static_cast<double>(r.truncated));
  s.gauge("drops_attributed").set(static_cast<double>(r.drops_attributed));
  s.gauge("paths").set(static_cast<double>(r.paths));
  s.gauge("depth.exact_mean").set(r.depth_exact_mean);
  s.gauge("depth.est_mean").set(r.depth_est_mean);
  if (mode == Mode::kSketch) {
    s.gauge("recall").set(r.recall);
    s.gauge("precision").set(r.precision);
  }
}

struct Topo {
  const char* name;
  bool fat_tree;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH] [--trace-out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const WorkloadShape w = shape(quick);
  const topo::SwitchKind kinds[] = {topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp};
  const Mode modes[] = {Mode::kOff, Mode::kInt, Mode::kSketch};
  std::vector<Topo> topos = {{"leaf_spine", false}};
  if (!quick) topos.push_back({"fat_tree_4", true});

  sim::MetricRegistry report;
  report.gauge("config.quick").set(quick ? 1.0 : 0.0);
  bool ok = true;
  bool traced = true;
  std::printf("%-6s %-7s %-11s | %9s %9s | %7s %7s %7s %6s | %7s %7s\n", "arch",
              "mode", "topo", "events", "ns_per_op", "stamps", "reports", "postcd",
              "paths", "recall", "precis");

  for (const topo::SwitchKind kind : kinds) {
    const char* arch = kind == topo::SwitchKind::kRmt ? "rmt" : "adcp";
    for (const Topo& t : topos) {
      CellResult off;
      CellResult armed;
      for (const Mode mode : modes) {
        // Both topology shapes end up with 16 hosts; the fat tree just
        // spreads them over three switch tiers instead of two.
        topo::LeafSpineParams ls;
        ls.leaves = 2;
        ls.spines = 2;
        ls.hosts_per_leaf = 8;
        ls.kind = kind;
        topo::FatTreeParams ft;
        ft.k = 4;
        ft.kind = kind;

        bool repeat_ok = true;
        // Quick (CI smoke) keeps one measured pass; full runs take
        // best-of-5 so the committed overhead figure is scheduler-proof.
        const int passes = quick ? 1 : 5;
        const CellResult r = t.fat_tree
                                 ? run_sequential(ft, mode, w, &repeat_ok, passes)
                                 : run_sequential(ls, mode, w, &repeat_ok, passes);
        if (!repeat_ok) {
          std::fprintf(stderr, "%s.%s.%s: sequential run is not repeatable\n", arch,
                       mode_name(mode), t.name);
          ok = false;
        }
        if (!trace_out.empty() && mode == Mode::kInt && !t.fat_tree &&
            kind == topo::SwitchKind::kAdcp) {
          traced = export_trace(ls, mode, w, r.now, trace_out);
        }

        sim::Scope cell = report.scope(std::string(arch) + "." + mode_name(mode) +
                                       "." + t.name);
        export_cell(cell, r, mode);
        std::printf("%-6s %-7s %-11s | %9llu %9.1f | %7llu %7llu %7llu %6llu | "
                    "%7.2f %7.2f\n",
                    arch, mode_name(mode), t.name,
                    static_cast<unsigned long long>(r.events), r.ns_per_op,
                    static_cast<unsigned long long>(r.stamps),
                    static_cast<unsigned long long>(r.reports),
                    static_cast<unsigned long long>(r.postcards),
                    static_cast<unsigned long long>(r.paths), r.recall, r.precision);

        if (mode == Mode::kOff) {
          off = r;
          const bool match = t.fat_tree ? off_byte_equal(ft, w, r)
                                        : off_byte_equal(ls, w, r);
          cell.gauge("match").set(match ? 1.0 : 0.0);
          if (!match) {
            std::fprintf(stderr, "%s.%s: disarmed build is NOT byte-identical\n",
                         arch, t.name);
            ok = false;
          }
          continue;
        }
        if (mode == Mode::kInt) armed = r;

        // Armed sanity: the observatory saw traffic end to end.
        if (r.stamps == 0 || r.reports == 0 || r.paths == 0) {
          std::fprintf(stderr, "%s.%s.%s: no telemetry flowed\n", arch,
                       mode_name(mode), t.name);
          ok = false;
        }
        if (mode == Mode::kSketch && r.recall < 0.9) {
          std::fprintf(stderr, "%s.%s.%s: heavy-hitter recall %.2f < 0.9\n", arch,
                       mode_name(mode), t.name, r.recall);
          ok = false;
        }

        // Determinism pin: every worker count of the sharded engine must
        // produce bit-identical snapshot bytes and final time. The
        // reference is the 1-worker sharded run, not the sequential one —
        // INT records carry per-packet state (queue depth, hop latency),
        // and sequential-vs-sharded same-tick ties may legally interleave
        // differently (the per-packet-span caveat from bench_leaf_spine);
        // across worker counts the tie order is pinned. The fat tree
        // checks a narrower ladder to bound full-mode wall time.
        const auto [now1, hash1] = t.fat_tree ? run_parallel_pin(ft, mode, w, 1)
                                              : run_parallel_pin(ls, mode, w, 1);
        const std::vector<unsigned> ladder =
            t.fat_tree ? std::vector<unsigned>{4} : std::vector<unsigned>{2, 4, 8};
        bool det = true;
        for (const unsigned n : ladder) {
          const auto [now, hash] = t.fat_tree ? run_parallel_pin(ft, mode, w, n)
                                              : run_parallel_pin(ls, mode, w, n);
          if (now != now1 || hash != hash1) {
            std::fprintf(stderr, "%s.%s.%s: t%u DIVERGES from t1\n", arch,
                         mode_name(mode), t.name, n);
            det = false;
          }
        }
        cell.gauge("determinism.match").set(det ? 1.0 : 0.0);
        ok = ok && det;
      }
      // Armed runs execute more events per delivered packet (postcards,
      // reports, the collector), so the headline divides wall time by the
      // packets the sink received; per event is the secondary figure.
      if (!t.fat_tree && off.ns_per_pkt > 0 && off.ns_per_op > 0) {
        const double pct = (armed.ns_per_pkt / off.ns_per_pkt - 1.0) * 100.0;
        const double per_event_pct = (armed.ns_per_op / off.ns_per_op - 1.0) * 100.0;
        report.scope(arch).gauge("int_overhead_pct").set(pct);
        report.scope(arch).gauge("int_overhead_per_event_pct").set(per_event_pct);
        std::printf("%-6s INT simulator overhead: %+.1f%% ns/delivered pkt (off %.1f -> "
                    "int %.1f), %+.1f%% ns/event\n",
                    arch, pct, off.ns_per_pkt, armed.ns_per_pkt, per_event_pct);
      }
    }
  }

  if (!bench::write_report(report, "telemetry", out) || !traced) return 1;
  if (!ok) {
    std::fprintf(stderr, "FAIL: telemetry gates violated\n");
    return 1;
  }
  return 0;
}

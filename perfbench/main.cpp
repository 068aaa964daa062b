// perfbench: the repo benchmark's measuring binary. One process runs one
// workload: a discarded warm-up pass, then fresh-fabric passes for
// --seconds, then (with --trace 1) the untimed passes: one traced, one
// stepped to read the event-heap peak and, on allreduce_ft8_adcp, one on
// the sharded engine. It checks every pass
// against the packet ledger and the determinism contract and prints, as
// its last stdout line, {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--quick] [--out-dir DIR] [--git-sha SHA]
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct WorkloadName {
  const char* name;
  WorkloadId id;
};
constexpr WorkloadName kWorkloads[] = {
    {"allreduce_ft8_adcp", WorkloadId::kAllreduceFt8Adcp},
    {"churn_ls_rmt", WorkloadId::kChurnLsRmt},
    {"int_incast_ft4_rmt", WorkloadId::kIntIncastFt4Rmt},
};

/// Sharded-vs-monolithic executed-event skew allowed by DESIGN.md §9: a
/// few coalesced idle wakes; lost or duplicated packets move it by
/// hundreds.
constexpr std::uint64_t kMaxEventSkew = 16;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Inter-quartile range over median (the spread the A/A check uses).
double iqr_frac(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto q = [&v](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  const double m = median(v);
  return m == 0.0 ? 0.0 : (q(0.75) - q(0.25)) / m;
}

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c >= 0x20 ? c : ' ';
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Records a violation when a later pass does not reproduce the first
/// pass's simulated outputs. `exact` also pins executed events and every
/// per-layer count (same engine); across engines only the observable
/// outputs must match and events may differ by the documented skew.
void compare(const PassResult& ref, const PassResult& r, const std::string& what, bool exact,
             std::vector<std::string>& errors) {
  const auto check = [&](bool ok, const char* field) {
    if (!ok) errors.push_back(what + ": " + field + " differs from the first pass");
  };
  check(r.done == ref.done, "sim_done_us");
  check(r.hash == ref.hash, "merged-snapshot hash");
  check(r.offered == ref.offered && r.delivered == ref.delivered, "delivered packets");
  check(r.lat_samples == ref.lat_samples && r.lat_p50_us == ref.lat_p50_us &&
            r.lat_p99_us == ref.lat_p99_us,
        "latency quantiles");
  if (exact) {
    check(r.events == ref.events, "executed events");
    check(r.counts == ref.counts, "per-layer counts");
  } else {
    const std::uint64_t skew =
        r.events > ref.events ? r.events - ref.events : ref.events - r.events;
    check(skew <= kMaxEventSkew, "executed events (beyond the allowed skew)");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
               "[--quick] [--out-dir DIR] [--git-sha SHA]\nworkloads:");
  for (const WorkloadName& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  bool named = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (a == "--git-sha" && has_value) {
      opt.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  for (const WorkloadName& w : kWorkloads) {
    if (opt.workload == w.name) {
      opt.id = w.id;
      named = true;
    }
  }
  if (!named || !(opt.seconds >= 0.0)) return usage();
  std::filesystem::create_directories(opt.out_dir);

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Every checked pass counts its offered packets as attempted; a pass
  // with any gate violation counts them all as failed.
  const auto account = [&](const PassResult& r, std::size_t errors_before) {
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    attempted += r.offered;
    if (errors.size() > errors_before) failed += r.offered;
  };

  // The first pass is a warm-up: its times are discarded, its simulated
  // outputs are the reference every later pass must reproduce.
  const PassResult ref = run_pass(opt, PassMode::kTimed);
  account(ref, errors.size());
  std::vector<PassResult> passes;
  const std::size_t min_passes = opt.quick ? 2 : 5;
  const std::uint64_t deadline = wall_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  while (passes.size() < min_passes || wall_ns() < deadline) {
    PassResult r = run_pass(opt, PassMode::kTimed);
    const std::size_t before = errors.size();
    compare(ref, r, "pass " + std::to_string(passes.size() + 1), true, errors);
    account(r, before);
    r.errors.clear();
    passes.push_back(std::move(r));
  }
  const double rss_mib = peak_rss_mib();

  // The untimed passes of a traced run. Each must reproduce the first
  // pass; the sharded one with the event skew DESIGN.md §9 allows.
  PassResult traced, stepped, sharded;
  const auto untimed = [&](PassMode mode, const char* what, bool exact) {
    PassResult r = run_pass(opt, mode);
    const std::size_t before = errors.size();
    compare(ref, r, what, exact, errors);
    account(r, before);
    return r;
  };
  if (opt.trace) {
    traced = untimed(PassMode::kTraced, "traced pass", true);
    stepped = untimed(PassMode::kStepped, "stepped pass", true);
    if (opt.id == WorkloadId::kAllreduceFt8Adcp) {
      sharded = untimed(PassMode::kSharded, "sharded pass", false);
    }
  }

  const PassResult& fast = *std::min_element(
      passes.begin(), passes.end(),
      [](const PassResult& a, const PassResult& b) { return a.timed_ms < b.timed_ms; });
  std::vector<double> setup_ms, timed_ms;
  for (const PassResult& r : passes) {
    setup_ms.push_back(r.setup_ms);
    timed_ms.push_back(r.timed_ms);
  }
  const double pkts = std::max(1.0, static_cast<double>(ref.delivered));
  const double offered = static_cast<double>(ref.offered);

  const std::vector<Metric> end_to_end = {
      {"setup_s", *std::min_element(setup_ms.begin(), setup_ms.end()) / 1e3, "s"},
      {"wall_ns_per_pkt", fast.timed_ms * 1e6 / pkts, "ns"},
      {"peak_rss_mb", rss_mib, "MiB"},
      {"sim_lat_p50_us", ref.lat_p50_us, "us"},
      {"sim_lat_p99_us", ref.lat_p99_us, "us"},
      {"sim_done_us", static_cast<double>(ref.done) / 1e6, "us"},
      {"delivered_frac", static_cast<double>(ref.delivered) / std::max(1.0, offered), "ratio"},
  };

  const auto& c = ref.counts;
  const auto& t = traced.traced;
  const auto& peak = stepped.traced;
  const auto& pdes = sharded.traced;
  const double run_ms = fast.layer_ms[kSim];
  std::vector<Metric> per_layer = {
      {"sim.events_per_pkt", get(c, "sim.events_per_pkt"), "events/pkt"},
      {"sim.ns_per_event", run_ms * 1e6 / std::max(1.0, static_cast<double>(fast.events)), "ns"},
      {"sim.pending_peak", get(peak, "sim.pending_peak"), "events"},
      {"sim.run_ms", run_ms, "ms"},
      {"sim.pdes.busy_frac", get(pdes, "sim.pdes.busy_frac"), "ratio"},
      {"sim.pdes.horizon_wait_frac", get(pdes, "sim.pdes.horizon_wait_frac"), "ratio"},
      {"sim.pdes.rounds_per_pkt", get(pdes, "sim.pdes.rounds_per_pkt"), "rounds/pkt"},
      {"sim.pdes.msgs_per_pkt", get(pdes, "sim.pdes.msgs_per_pkt"), "msgs/pkt"},
      {"topo.build_ms", fast.layer_ms[kTopo], "ms"},
      {"topo.bytes_touched_mb", get(c, "topo.bytes_touched_mb"), "MiB"},
      {"topo.trunk_hops_per_pkt", get(c, "topo.trunk_hops_per_pkt"), "hops/pkt"},
      {"packet.parse_deparse_ns", get(t, "packet.parse_deparse_ns"), "ns"},
      {"packet.pool_fresh", get(c, "packet.pool_fresh"), "count"},
      {"tm.drop_frac", get(c, "tm.drop_frac"), "ratio"},
      {"tm.watermark_kb", get(c, "tm.watermark_kb"), "KiB"},
      {"tm.enq_per_pkt", get(c, "tm.enq_per_pkt"), "enq/pkt"},
      {"tm.enq_deq_ns", get(t, "tm.enq_deq_ns"), "ns"},
      {"core.fwd_ns_per_pkt", get(t, "core.fwd_ns_per_pkt"), "ns"},
      {"rmt.fwd_ns_per_pkt", get(t, "rmt.fwd_ns_per_pkt"), "ns"},
      {"rmt.recirc_per_pkt", get(c, "rmt.recirc_per_pkt"), "passes/pkt"},
      {"net.inject_ms", fast.layer_ms[kNet], "ms"},
      {"net.reordered", get(c, "net.reordered"), "count"},
      {"fastpath.hit_rate", get(c, "fastpath.hit_rate"), "ratio"},
      {"fastpath.inval_per_kpkt", get(c, "fastpath.inval_per_kpkt"), "inval/kpkt"},
      {"ctrl.attach_ms", fast.layer_ms[kCtrl], "ms"},
      {"ctrl.update_pkts_per_kquery", get(c, "ctrl.update_pkts_per_kquery"), "pkts/kquery"},
      {"ctrl.store_hit_rate", get(c, "ctrl.store_hit_rate"), "ratio"},
      {"ctrl.staleness_misses", get(c, "ctrl.staleness_misses"), "count"},
      {"ctrl.query_lat_mean_us", get(c, "ctrl.query_lat_mean_us"), "us"},
      {"telem.stamps_per_pkt", get(c, "telem.stamps_per_pkt"), "stamps/pkt"},
      {"telem.overhead_pkts_per_pkt", get(c, "telem.overhead_pkts_per_pkt"), "pkts/pkt"},
  };
  for (const char* kind : {"host_tx", "rx", "ingress", "central", "egress", "tm_queue", "tx",
                           "trunk", "recirc", "host_rx"}) {
    const std::string name = std::string("span.") + kind + "_us";
    per_layer.push_back({name, get(t, name), "us"});
  }
  per_layer.push_back(
      {"trace.overhead_frac", traced.timed_ms / std::max(1e-9, fast.timed_ms), "ratio"});

  // Human-readable view, then provenance, then the result line.
  std::printf("%s seed %" PRIu64 ": %zu measured passes, %" PRIu64 " delivered packets per pass\n",
              opt.workload.c_str(), opt.seed, passes.size(), ref.delivered);
  const auto print = [](const Metric& m) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  };
  for (const Metric& m : end_to_end) print(m);
  if (opt.trace) {
    for (const Metric& m : per_layer) print(m);
    for (const auto& [layer, ms] : traced.self_ms) print({"self " + layer, ms, "ms"});
  }
  for (const std::string& e : errors) std::fprintf(stderr, "GATE FAILED: %s\n", e.c_str());

  const std::string provenance =
      "{\"git_sha\": " + json_str(opt.git_sha) +
      ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"workload\": " + json_str(opt.workload) + ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + num(opt.seconds) + ", \"quick\": " + (opt.quick ? "true" : "false") +
      ", \"passes\": " + std::to_string(passes.size()) +
      ", \"packets_per_pass\": " + std::to_string(ref.delivered) +
      ", \"offered_per_pass\": " + std::to_string(ref.offered) +
      ", \"latency_samples\": " + std::to_string(ref.lat_samples) +
      ", \"events_per_pass\": " + std::to_string(ref.events) + "}";
  std::printf("provenance %s\n", provenance.c_str());

  const bool correct = errors.empty();
  {
    std::string report = "{\"provenance\": " + provenance +
                         ", \"correct\": " + (correct ? "true" : "false") + ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) report += (i ? ", " : "") + json_str(errors[i]);
    report += "], \"end_to_end\": " + metrics_json(end_to_end);
    if (opt.trace) report += ", \"per_layer\": " + metrics_json(per_layer);
    std::vector<Metric> counts;
    for (const auto& [k, v] : c) counts.push_back({k, v, "count"});
    report += ", \"counts\": " + metrics_json(counts);
    const auto series = [](const std::vector<double>& v) {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
      return s + "]";
    };
    report += ", \"passes\": {\"timed_ms\": " + series(timed_ms) + ", \"setup_ms\": " +
              series(setup_ms) + ", \"timed_ms_iqr_frac\": " + num(iqr_frac(timed_ms)) +
              ", \"setup_ms_iqr_frac\": " + num(iqr_frac(setup_ms)) + "}";
    std::vector<Metric> traced_all;
    for (const auto* m : {&t, &peak, &pdes}) {
      for (const auto& [k, v] : *m) traced_all.push_back({k, v, "traced"});
    }
    report += ", \"traced\": " + metrics_json(traced_all);
    std::vector<Metric> self;
    for (const auto& [layer, ms] : traced.self_ms) self.push_back({layer, ms, "ms"});
    report += ", \"self_ms\": " + metrics_json(self) + "}\n";
    const std::string path = opt.out_dir + "/" + opt.workload + ".seed" + std::to_string(opt.seed) +
                             (opt.trace ? ".trace1" : ".trace0") + ".json";
    if (!sim::write_text_file(path, report)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(opt.trace ? per_layer : end_to_end).c_str());
  return opt.quick && !correct ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }

// Control-plane churn under shifting workloads: RMT vs ADCP (EXPERIMENTS.md
// E23).
//
// A leaf–spine fabric is built with the in-band control channel enabled;
// every edge switch gets a mat::VersionedStore and the churn query program
// (ctrl::ControlPlane), and a ctrl::ControlAgent riding the backing-store
// host ships install/evict batches as real kCtrlUpdate packets across the
// fabric. Client hosts issue Zipf-distributed kChurnQuery traffic whose
// hot set rotates mid-run (sim::Zipf::set_offset), while a background rack
// incast shares the links so control/data contention shows up in its CCT.
//
// The sweep crosses switch architecture x agent poll period (the update
// rate) x popularity shift period (0 = static baseline). The contrast the
// paper predicts: the ADCP store is one global area (full capacity), the
// RMT store replicates into every ingress pipeline (capacity divided by
// pipeline_count), so under the same update budget RMT holds fewer hot
// keys and its hit rate drops — hardest right after a shift, when the
// staleness window (queries lost between stage and commit) also peaks.
//
// Output: one <arch>.p<poll_us>.s<shift_us>.* series per cell in
// BENCH_control.json (hit_rate, hits/misses/staleness_misses, installs,
// hit/miss latency, background CCT, agent traffic) plus a stdout table.
//
// Usage: bench_control_churn [--quick] [--out PATH]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "coflow/tracker.hpp"
#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"
#include "workload/churn.hpp"
#include "workload/rack_coflow.hpp"

namespace {

using namespace adcp;

struct CellResult {
  double hit_rate = 0;
  std::uint64_t sent = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t staleness_misses = 0;
  std::uint64_t installs = 0;
  double hit_latency_ns = 0;
  double miss_latency_ns = 0;
  double bg_cct_us = 0;
  std::uint64_t agent_polls = 0;
  std::uint64_t agent_packets = 0;
  std::uint64_t events = 0;
};

CellResult run_cell(topo::SwitchKind kind, sim::Time agent_period,
                    sim::Time shift_period, bool quick) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  // Port count must stay a multiple of 4 (hosts + spines + mgmt) so the RMT
  // tier keeps its 4 ingress pipelines — the capacity split under test.
  p.hosts_per_leaf = quick ? 5 : 9;
  p.kind = kind;
  p.control_channel = true;
  topo::Network net(sim, p);

  const std::size_t backing = net.host_count() - 1;

  ctrl::ControlPlaneConfig cpc;
  cpc.store_capacity = 64;  // ADCP: 64 entries; RMT: 64/4 per-pipeline copies
  ctrl::ControlPlane cp(cpc, net);
  cp.attach_all();

  ctrl::ControlAgentConfig acfg;
  acfg.period = agent_period;
  acfg.hot_set = 48;
  acfg.update_budget = 96;  // a full hot-set rotation fits in one poll
  ctrl::ControlAgent agent(acfg, net, backing);
  agent.add_all_targets();
  agent.start();

  workload::ChurnParams wp;
  wp.backing_host = backing;
  wp.key_space = 512;
  wp.zipf_skew = 1.0;
  wp.queries_per_client = quick ? 200 : 600;
  wp.shift_period = shift_period;
  wp.shift_step = 64;  // > hot_set: each shift displaces the whole hot set
  workload::ChurnQuery churn(wp, net);
  churn.start(0);

  // Background rack incast into host 0 so control and churn traffic
  // contend with data coflows on the same trunks.
  std::vector<workload::RackHost> hosts = workload::rack_hosts(net);
  coflow::CoflowTracker tracker;
  net.set_tracker(&tracker);
  workload::RackIncastParams inc;
  inc.sink = 0;
  inc.senders = 4;
  inc.packets_per_sender = quick ? 8 : 32;
  const sim::Time bg_start = 50 * sim::kMicrosecond;
  tracker.start(workload::rack_incast_descriptor(inc, hosts.size()), bg_start);
  workload::start_rack_incast(hosts, inc, bg_start);

  // The agent polls via every(), which never quiesces on its own: stop it
  // after the last query could have been issued, then drain.
  const sim::Time t_stop =
      wp.interval * wp.queries_per_client + 100 * sim::kMicrosecond;
  sim.at(t_stop, [&agent] { agent.stop(); });

  CellResult r;
  r.events = sim.run();
  r.hit_rate = churn.hit_rate();
  r.sent = churn.sent();
  r.hits = churn.hits();
  r.misses = churn.misses();
  r.outstanding = churn.outstanding();
  r.staleness_misses = cp.total_staleness_misses();
  r.installs = cp.total_installs();
  r.hit_latency_ns = churn.hit_latency_ns().mean();
  r.miss_latency_ns = churn.miss_latency_ns().mean();
  r.bg_cct_us =
      static_cast<double>(tracker.record(inc.coflow_id)->completion_time()) / 1e6;
  r.agent_polls = agent.polls();
  r.agent_packets = agent.update_packets();
  return r;
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

  const topo::SwitchKind kinds[] = {topo::SwitchKind::kRmt, topo::SwitchKind::kAdcp};
  const sim::Time periods[] = {25 * sim::kMicrosecond, 100 * sim::kMicrosecond};
  const sim::Time shifts[] = {0, 200 * sim::kMicrosecond};

  sim::MetricRegistry report;
  std::printf(
      "%-6s %8s %8s | %8s %6s %6s %9s %8s | %9s %9s %9s\n", "arch", "poll_us",
      "shift_us", "hit_rate", "hits", "misses", "stale_mis", "installs",
      "hit_ns", "miss_ns", "bg_cct_us");
  bool ok = true;
  for (const topo::SwitchKind kind : kinds) {
    const char* arch = kind == topo::SwitchKind::kRmt ? "rmt" : "adcp";
    for (const sim::Time period : periods) {
      for (const sim::Time shift : shifts) {
        const CellResult r = run_cell(kind, period, shift, quick);
        const auto period_us = period / sim::kMicrosecond;
        const auto shift_us = shift / sim::kMicrosecond;
        std::printf("%-6s %8llu %8llu | %8.3f %6llu %6llu %9llu %8llu | %9.0f "
                    "%9.0f %9.2f\n",
                    arch, static_cast<unsigned long long>(period_us),
                    static_cast<unsigned long long>(shift_us), r.hit_rate,
                    static_cast<unsigned long long>(r.hits),
                    static_cast<unsigned long long>(r.misses),
                    static_cast<unsigned long long>(r.staleness_misses),
                    static_cast<unsigned long long>(r.installs), r.hit_latency_ns,
                    r.miss_latency_ns, r.bg_cct_us);
        // Every query must be answered (the fabric is lossless) and the
        // warmed-up control plane must produce a nonzero hit rate.
        if (r.outstanding != 0 || r.hits == 0) ok = false;

        sim::Scope cell = report.scope(std::string(arch) + ".p" +
                                       std::to_string(period_us) + ".s" +
                                       std::to_string(shift_us));
        cell.gauge("hit_rate").set(r.hit_rate);
        cell.gauge("sent").set(static_cast<double>(r.sent));
        cell.gauge("hits").set(static_cast<double>(r.hits));
        cell.gauge("misses").set(static_cast<double>(r.misses));
        cell.gauge("outstanding").set(static_cast<double>(r.outstanding));
        cell.gauge("staleness_misses").set(static_cast<double>(r.staleness_misses));
        cell.gauge("installs").set(static_cast<double>(r.installs));
        cell.gauge("hit_latency_ns").set(r.hit_latency_ns);
        cell.gauge("miss_latency_ns").set(r.miss_latency_ns);
        cell.gauge("bg_cct_us").set(r.bg_cct_us);
        cell.gauge("agent_polls").set(static_cast<double>(r.agent_polls));
        cell.gauge("agent_packets").set(static_cast<double>(r.agent_packets));
        cell.gauge("events").set(static_cast<double>(r.events));
      }
    }
  }
  report.gauge("quick").set(quick ? 1.0 : 0.0);

  if (!bench::write_report(report, "control", out)) return 1;
  if (!ok) {
    std::fprintf(stderr, "FAIL: lost replies or zero hit rate\n");
    return 1;
  }
  return 0;
}

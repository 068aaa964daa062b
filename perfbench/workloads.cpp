// The three benchmark workloads, one pass each on a fresh fabric, plus the
// ledger and determinism bookkeeping every pass shares.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <string_view>

#include "bench.hpp"
#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "mat/state_accounting.hpp"
#include "sim/metrics.hpp"
#include "workload/churn.hpp"
#include "workload/rack_coflow.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return sim::TraceSampler::mix(seed * 0x9e37'79b9'7f4a'7c15ULL + salt);
}

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {"topo", "ctrl", "net", "sim",
                                                      "packet", "tm", "core", "rmt"};
  return kNames[layer];
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

LayerClock::LayerClock(sim::SpanBuffer* spans) : origin_(wall_ns()) {
  if (spans == nullptr) return;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    rec_[l] = spans->recorder(std::string("bench.") + layer_name(static_cast<Layer>(l)));
  }
}

void LayerClock::add(Layer layer, std::uint64_t t0, std::uint64_t t1) {
  ns_[layer] += t1 - t0;
  rec_[layer].span(sim::SpanKind::kPdesBusy, 1, t0, t1);
}

std::uint32_t DataLedger::add_flow(std::uint32_t packets) {
  flows_.emplace_back();
  flows_.back().sent_at.assign(packets, 0);
  flows_.back().rx_at.assign(packets, 0);
  return kFlowBase + static_cast<std::uint32_t>(flows_.size() - 1);
}

void DataLedger::sent(std::uint32_t flow_id, std::uint32_t seq, sim::Time at_switch) {
  flows_.at(flow_id - kFlowBase).sent_at.at(seq) = at_switch;
}

std::int64_t DataLedger::on_rx(const packet::Packet& pkt, sim::Time now) {
  // Fixed INC fields behind Ethernet/IPv4/UDP: opcode, flow id and seq.
  constexpr std::size_t kInc = packet::kEthernetBytes + packet::kIpv4Bytes + packet::kUdpBytes;
  if (pkt.size() < kInc + packet::kIncFixedBytes) return -1;
  if (pkt.data.read(kInc, 1) != static_cast<std::uint64_t>(packet::IncOpcode::kPlain)) return -1;
  const std::uint64_t flow = pkt.data.read(kInc + 4, 4);
  if (flow < kFlowBase || flow - kFlowBase >= flows_.size()) return -1;
  Flow& f = flows_[flow - kFlowBase];
  const std::uint64_t seq = pkt.data.read(kInc + 8, 4);
  if (seq >= f.rx_at.size()) return -1;
  if (f.rx_at[seq] != 0) {
    ++f.duplicates;
  } else {
    f.rx_at[seq] = now;
  }
  return static_cast<std::int64_t>(flow - kFlowBase);
}

DataLedger::Totals DataLedger::totals() const {
  Totals t;
  for (const Flow& f : flows_) {
    t.offered += f.sent_at.size();
    t.duplicates += f.duplicates;
    for (std::size_t s = 0; s < f.sent_at.size(); ++s) {
      if (f.sent_at[s] == 0) ++t.unsent;
      if (f.rx_at[s] == 0) continue;
      ++t.delivered;
      t.done = std::max(t.done, f.rx_at[s]);
      t.lat_us.push_back(static_cast<double>(f.rx_at[s] - f.sent_at[s]) / 1e6);
    }
  }
  std::sort(t.lat_us.begin(), t.lat_us.end());
  return t;
}

namespace {

namespace ctrl = adcp::ctrl;
namespace workload = adcp::workload;

constexpr std::uint32_t kTraceSampleEvery = 32;
constexpr std::size_t kSpanRing = 1u << 18;
constexpr std::size_t kReplayPackets = 4096;
constexpr unsigned kShardedWorkers = 2;

enum Salt : std::uint64_t {
  kSaltEcmp = 1,
  kSaltLoss,
  kSaltTrace,
  kSaltZipf,
  kSaltTelem,
  kSaltTraffic,
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Nearest-rank quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The counters the layers already expose, folded from the merged snapshot
/// by metric-name suffix.
struct Tally {
  std::uint64_t switch_drops = 0;  ///< parse, program, no_route, recirc_limit, dispatch_queue
  std::uint64_t tm_admission = 0;
  std::uint64_t tm_enqueued = 0;
  std::uint64_t pool_fresh = 0;
  std::uint64_t recirc = 0;
  std::uint64_t reordered = 0;
  std::uint64_t ctrl_consumed = 0;  ///< update packets staged by control stores
  std::uint64_t stamps = 0;
  std::uint64_t postcards = 0;      ///< emitted by the switch telemetry taps
  std::uint64_t trunk_packets = 0;  ///< trunk traversals, both directions
  double watermark_max_bytes = 0;
};

Tally tally(const sim::Snapshot& snap) {
  Tally t;
  for (const sim::Snapshot::Entry& e : snap.entries()) {
    const std::string_view n = e.name;
    const auto ends = [n](std::string_view suffix) { return n.ends_with(suffix); };
    if (e.kind == sim::MetricKind::kWatermark) {
      if (ends("buffer.watermark_bytes")) {
        t.watermark_max_bytes = std::max(t.watermark_max_bytes, e.value);
      }
      continue;
    }
    if (e.kind != sim::MetricKind::kCounter) continue;
    const std::uint64_t v = e.count;
    if (ends(".drops.parse") || ends(".drops.program") || ends(".drops.no_route") ||
        ends(".drops.recirc_limit") || ends(".drops.dispatch_queue")) {
      t.switch_drops += v;
    } else if (ends(".drops.admission")) {
      t.tm_admission += v;
    } else if (ends(".enqueued")) {
      t.tm_enqueued += v;
    } else if (ends(".pool.fresh")) {
      t.pool_fresh += v;
    } else if (ends(".recirc.passes")) {
      t.recirc += v;
    } else if (ends(".rx.reordered")) {
      t.reordered += v;
    } else if (ends(".ctrl.update_packets")) {
      t.ctrl_consumed += v;
    } else if (ends(".telem.stamps")) {
      t.stamps += v;
    } else if (ends(".telem.postcards")) {
      t.postcards += v;
    } else if (n.starts_with("topo.trunk") && (ends(".ab.packets") || ends(".ba.packets"))) {
      t.trunk_packets += v;
    }
  }
  return t;
}

/// Mean simulated time per traced packet in each span kind, keyed
/// "span.<kind>_us". Kinds follow sim::SpanKind; instants carry no time.
void span_means(const std::vector<const sim::SpanBuffer*>& buffers, PassResult& r) {
  static constexpr std::pair<sim::SpanKind, const char*> kKinds[] = {
      {sim::SpanKind::kHostTx, "host_tx"}, {sim::SpanKind::kRx, "rx"},
      {sim::SpanKind::kIngress, "ingress"}, {sim::SpanKind::kCentral, "central"},
      {sim::SpanKind::kEgress, "egress"},   {sim::SpanKind::kTmQueue, "tm_queue"},
      {sim::SpanKind::kTx, "tx"},           {sim::SpanKind::kTrunk, "trunk"},
      {sim::SpanKind::kRecirc, "recirc"},   {sim::SpanKind::kHostRx, "host_rx"}};
  std::array<double, sim::kSpanKindCount> sum_ps{};
  std::set<std::uint64_t> packets;
  std::uint64_t dropped = 0;
  double fill = 0;
  for (const sim::SpanBuffer* b : buffers) {
    dropped += b->dropped();
    if (b->capacity() > 0) {
      const double used = static_cast<double>(b->recorded());
      fill = std::max(fill, used / static_cast<double>(b->capacity()));
    }
    for (std::size_t i = 0; i < b->size(); ++i) {
      const sim::Span& s = b->at(i);
      if (s.kind >= sim::SpanKind::kPdesBusy) continue;
      packets.insert(s.trace_id);
      sum_ps[static_cast<std::size_t>(s.kind)] += static_cast<double>(s.end - s.begin);
    }
  }
  if (dropped != 0) {
    r.errors.push_back("packet span ring wrapped: " + std::to_string(dropped) + " spans lost");
  }
  const double n = packets.empty() ? 1.0 : static_cast<double>(packets.size());
  for (const auto& [kind, name] : kKinds) {
    const double ps = sum_ps[static_cast<std::size_t>(kind)];
    r.traced[std::string("span.") + name + "_us"] = ps / 1e6 / n;
  }
  r.traced["trace.packets"] = static_cast<double>(packets.size());
  r.traced["trace.ring_fill"] = fill;
}

/// Self time per layer: each wall span minus the spans directly nested in
/// it. Sorting by (begin, longest first) puts every span after the spans
/// that enclose it, so a stack of open spans yields each one's parent.
std::vector<std::pair<std::string, double>> self_times(const sim::SpanBuffer& wall) {
  std::vector<sim::Span> spans;
  for (std::size_t i = 0; i < wall.size(); ++i) spans.push_back(wall.at(i));
  std::sort(spans.begin(), spans.end(), [](const sim::Span& a, const sim::Span& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
  });
  std::vector<double> self_ns(spans.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end - spans[i].begin);
    self_ns[i] = dur;
    while (!open.empty() && spans[open.back()].end < spans[i].end) open.pop_back();
    if (!open.empty()) self_ns[open.back()] -= dur;
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[wall.component_names()[spans[i].component]] += self_ns[i] / 1e6;
  }
  return {self.begin(), self.end()};
}

/// One pass: a fresh engine and fabric, the workload's traffic, the run,
/// and the checks. Workload functions below fill in the middle.
struct Pass {
  Pass(const Options& o, PassMode m)
      : opt(o), mode(m), clock(wall_traced() ? &wall_spans : nullptr) {
    if (wall_traced()) wall_spans.enable(1u << 14);
    if (mode == PassMode::kSharded) {
      par = std::make_unique<sim::ParallelSimulator>(kShardedWorkers);
      par->enable_profile_spans();
    } else {
      mono = std::make_unique<sim::Simulator>();
    }
  }

  /// Passes whose benchmark wall spans are recorded and exported.
  [[nodiscard]] bool wall_traced() const {
    return mode == PassMode::kTraced || mode == PassMode::kSharded;
  }

  template <typename Params>
  void build(Params params) {
    if (mode == PassMode::kTraced) {
      params.trace.sample_every = kTraceSampleEvery;
      params.trace.seed = derive_seed(opt.seed, kSaltTrace);
      params.trace.ring_capacity = kSpanRing;
    }
    touched0 = adcp::mat::StateAccounting::touched_bytes();
    setup_t0 = clock.now();
    net = par ? std::make_unique<topo::Network>(*par, params)
              : std::make_unique<topo::Network>(*mono, params);
    clock.add(kTopo, setup_t0, clock.now());
  }

  /// Set-up is over: the fabric, control plane and workload wiring exist.
  void ready() { r.setup_ms = static_cast<double>(clock.now() - setup_t0) / 1e6; }
  /// The timed window opens at the first injection call.
  void begin_inject() { timed_t0 = clock.now(); }

  /// Injects one ledger packet at `host` (on that host's shard).
  sim::Time send(std::size_t host, const packet::IncPacketSpec& spec, sim::Time earliest = 0) {
    const sim::Time at = net->host(host).send_inc(spec, earliest);
    ledger.sent(spec.inc.flow_id, spec.inc.seq, at);
    if (mode == PassMode::kTraced && sample.size() < kReplayPackets) sample.push_back(spec);
    return at;
  }

  /// Times `fn` (a batch of send() calls) as net layer work.
  template <typename F>
  void inject(F&& fn) {
    const std::uint64_t t0 = clock.now();
    fn();
    clock.add(kNet, t0, clock.now());
  }

  void run() {
    const std::uint64_t t0 = clock.now();
    if (par) {
      r.events = par->run();
    } else if (mode == PassMode::kStepped) {
      // Same loop as Simulator::run(), reading the heap depth per event.
      std::size_t peak = mono->pending();
      while (mono->step()) {
        ++r.events;
        peak = std::max(peak, mono->pending());
      }
      r.traced["sim.pending_peak"] = static_cast<double>(peak);
    } else {
      r.events = mono->run();
    }
    const std::uint64_t t1 = clock.now();
    clock.add(kSim, t0, t1);
    r.timed_ms = static_cast<double>(t1 - timed_t0) / 1e6;
  }

  void finish(bool lossless);

  const Options& opt;
  PassMode mode;
  sim::SpanBuffer wall_spans;  // before clock, which records into it
  LayerClock clock;
  std::unique_ptr<sim::Simulator> mono;
  std::unique_ptr<sim::ParallelSimulator> par;
  DataLedger ledger;  // outlives the network whose callbacks write it
  std::unique_ptr<topo::Network> net;
  std::vector<packet::IncPacketSpec> sample;  // traced pass: replay inputs
  PassResult r;
  std::uint64_t setup_t0 = 0;
  std::uint64_t timed_t0 = 0;
  std::uint64_t touched0 = 0;
  // Workload traffic the ledger does not see (churn queries and replies).
  std::uint64_t extra_offered = 0;
  std::uint64_t extra_delivered = 0;
  sim::Time extra_done = 0;
};

void Pass::finish(bool lossless) {
  net->finalize_metrics();
  const sim::Snapshot snap = net->merged_snapshot();
  r.hash = fnv1a(snap.to_json("perfbench"));
  const Tally t = tally(snap);
  const DataLedger::Totals d = ledger.totals();
  r.offered = d.offered + extra_offered;
  r.delivered = d.delivered + extra_delivered;
  r.done = std::max(d.done, extra_done);
  r.lat_samples = d.lat_us.size();
  r.lat_p50_us = quantile(d.lat_us, 0.50);
  r.lat_p99_us = quantile(d.lat_us, 0.99);

  // Packet ledger over every packet of the run, control and telemetry
  // included: what hosts sent plus what switches originated (postcards)
  // equals what hosts received plus what management ports consumed plus
  // every counted drop. Nothing is in flight once run() has returned.
  const std::uint64_t host_tx = net->total_host_tx_packets();
  const std::uint64_t host_rx = net->total_host_rx_packets();
  const std::uint64_t link_drops = net->total_host_link_drops() + net->total_trunk_drops();
  const std::uint64_t drops = t.switch_drops + t.tm_admission + link_drops;
  if (host_tx + t.postcards != host_rx + t.ctrl_consumed + drops) {
    r.errors.push_back("packet ledger: host_tx " + std::to_string(host_tx) + " + postcards " +
                       std::to_string(t.postcards) + " != host_rx " + std::to_string(host_rx) +
                       " + ctrl " + std::to_string(t.ctrl_consumed) + " + drops " +
                       std::to_string(drops));
  }
  if (d.unsent != 0) r.errors.push_back(std::to_string(d.unsent) + " data packets never sent");
  if (d.duplicates != 0) {
    r.errors.push_back(std::to_string(d.duplicates) + " data packets delivered twice");
  }
  const std::uint64_t missing = d.offered - d.delivered;
  if (missing > drops) {
    r.errors.push_back(std::to_string(missing) + " data packets missing but only " +
                       std::to_string(drops) + " drops counted");
  }
  if (lossless && (missing != 0 || drops != 0)) {
    r.errors.push_back("lossless workload lost " + std::to_string(missing) + " data packets (" +
                       std::to_string(drops) + " drops)");
  }
  if (!opt.quick && r.lat_samples < 1000) {
    r.errors.push_back("only " + std::to_string(r.lat_samples) + " latency samples (< 1000)");
  }

  const double pkts = r.delivered == 0 ? 1.0 : static_cast<double>(r.delivered);
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  auto& c = r.counts;
  c["ledger.host_tx"] = static_cast<double>(host_tx);
  c["ledger.host_rx"] = static_cast<double>(host_rx);
  c["ledger.postcards"] = static_cast<double>(t.postcards);
  c["ledger.ctrl_consumed"] = static_cast<double>(t.ctrl_consumed);
  c["ledger.drops.switch"] = static_cast<double>(t.switch_drops);
  c["ledger.drops.tm_admission"] = static_cast<double>(t.tm_admission);
  c["ledger.drops.link"] = static_cast<double>(link_drops);
  c["ledger.data_offered"] = static_cast<double>(d.offered);
  c["ledger.data_delivered"] = static_cast<double>(d.delivered);
  c["sim.events_per_pkt"] = static_cast<double>(r.events) / pkts;
  const std::uint64_t touched = adcp::mat::StateAccounting::touched_bytes() - touched0;
  c["topo.bytes_touched_mb"] = static_cast<double>(touched) / (1024.0 * 1024.0);
  c["topo.trunk_hops_per_pkt"] = static_cast<double>(t.trunk_packets) / pkts;
  c["packet.pool_fresh"] = static_cast<double>(t.pool_fresh);
  c["tm.drop_frac"] = ratio(static_cast<double>(t.tm_admission),
                            static_cast<double>(t.tm_enqueued + t.tm_admission));
  c["tm.watermark_kb"] = t.watermark_max_bytes / 1024.0;
  c["tm.enq_per_pkt"] = static_cast<double>(t.tm_enqueued) / pkts;
  c["rmt.recirc_per_pkt"] = static_cast<double>(t.recirc) / pkts;
  c["net.reordered"] = static_cast<double>(t.reordered);
  const adcp::fastpath::FlowCacheStats fp = net->fastpath_totals();
  c["fastpath.hit_rate"] =
      ratio(static_cast<double>(fp.hits), static_cast<double>(fp.hits + fp.misses));
  c["fastpath.inval_per_kpkt"] = static_cast<double>(fp.invalidations) * 1000.0 / pkts;
  // With telemetry armed the only host sends beyond the ledger's packets
  // are the sink hosts' reports to the collector.
  const std::uint64_t reports = net->telemetry_armed() ? host_tx - d.offered : 0;
  c["telem.stamps_per_pkt"] = static_cast<double>(t.stamps) / pkts;
  c["telem.overhead_pkts_per_pkt"] = static_cast<double>(t.postcards + reports) / pkts;
  for (std::size_t l = 0; l < kLayerCount; ++l) r.layer_ms[l] = clock.ms(static_cast<Layer>(l));

  const std::string stem = opt.out_dir + "/" + opt.workload + ".seed" + std::to_string(opt.seed);
  if (par) {
    const sim::Snapshot prof = par->metrics().snapshot();
    double busy = 0, wait = 0, idle = 0;
    for (const sim::Snapshot::Entry& e : prof.entries()) {
      if (e.name.ends_with(".busy_ns")) busy += static_cast<double>(e.count);
      if (e.name.ends_with(".horizon_wait_ns")) wait += static_cast<double>(e.count);
      if (e.name.ends_with(".idle_ns")) idle += static_cast<double>(e.count);
    }
    // Per shard, busy + horizon wait + idle is the run's wall time.
    const double shard_time = busy + wait + idle;
    const double wall = shard_time / static_cast<double>(par->shard_count());
    r.traced["sim.pdes.busy_frac"] = ratio(busy, wall * kShardedWorkers);
    r.traced["sim.pdes.horizon_wait_frac"] = ratio(wait, shard_time);
    r.traced["sim.pdes.rounds_per_pkt"] = static_cast<double>(par->epochs()) / pkts;
    r.traced["sim.pdes.msgs_per_pkt"] = prof.value("parallel.messages") / pkts;
    // The sharded pass's benchmark wall spans beside the PDES self-profile.
    std::vector<const sim::SpanBuffer*> spans = {&wall_spans};
    for (const sim::SpanBuffer* b : par->profile_span_buffers()) spans.push_back(b);
    if (!sim::write_text_file(stem + ".pdes.json", sim::spans_to_perfetto(spans, 1e-3))) {
      r.errors.push_back("cannot write trace files under " + opt.out_dir);
    }
  }
  if (mode != PassMode::kTraced) return;
  span_means(net->span_buffers(), r);
  const Replay rp = replay_layers(*net, sample, clock, r.errors);
  r.traced["packet.parse_deparse_ns"] = rp.parse_deparse_ns;
  r.traced["tm.enq_deq_ns"] = rp.enq_deq_ns;
  const bool rmt = net->kind_of(0) == topo::SwitchKind::kRmt;
  r.traced["core.fwd_ns_per_pkt"] = rmt ? 0.0 : rp.fwd_ns;
  r.traced["rmt.fwd_ns_per_pkt"] = rmt ? rp.fwd_ns : 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) r.layer_ms[l] = clock.ms(static_cast<Layer>(l));
  r.self_ms = self_times(wall_spans);

  // The pass's trace artifacts: benchmark wall spans and the sampled
  // packet spans.
  if (!sim::write_text_file(stem + ".wall.json", sim::spans_to_perfetto({&wall_spans}, 1e-3)) ||
      !sim::write_text_file(stem + ".packets.json", sim::spans_to_perfetto(net->span_buffers()))) {
    r.errors.push_back("cannot write trace files under " + opt.out_dir);
  }
}

// --- workloads ---------------------------------------------------------------

packet::IncPacketSpec data_spec(const topo::Network& net, std::size_t src, std::size_t dst,
                                std::uint32_t flow_id) {
  packet::IncPacketSpec spec;
  spec.ip_src = net.ip_of(src);
  spec.ip_dst = net.ip_of(dst);
  spec.udp_src = workload::rack_flow_udp_src(flow_id);
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.coflow_id = 1;
  spec.inc.flow_id = flow_id;
  spec.inc.worker_id = static_cast<std::uint32_t>(src);
  return spec;
}

void set_payload(packet::IncPacketSpec& spec, std::uint32_t seq, std::uint32_t elems,
                 std::uint32_t value) {
  spec.inc.seq = seq;
  spec.inc.elements.clear();
  for (std::uint32_t e = 0; e < elems; ++e) spec.inc.elements.push_back({seq * elems + e, value});
}

/// Registers a ledger sink on every listed host (on the host's own shard).
void sink_on(Pass& p, const std::vector<std::size_t>& hosts) {
  for (const std::size_t h : hosts) {
    const sim::Simulator* s = &p.net->sim_of_host(h);
    p.net->host(h).add_rx_callback(
        [&ledger = p.ledger, s](adcp::net::Host&, const packet::Packet& pkt) {
          ledger.on_rx(pkt, s->now());
        });
  }
}

/// Closed-loop parameter-server allreduce on fat_tree(8) ADCP: every
/// worker sends its gradient to host 0, and host 0's RX callback broadcasts
/// the result once the last reduce packet arrived. All reduce packets are
/// sent at t=0; each worker's NIC starts at a seeded straggler offset. The
/// broadcast carries 16 elements per packet (half the packets of the
/// reduce), so the latency median falls among the queued reduce packets
/// rather than on the broadcast's unloaded path latency.
void allreduce_ft8_adcp(Pass& p) {
  topo::FatTreeParams fp;
  fp.k = p.opt.quick ? 4 : 8;
  fp.kind = topo::SwitchKind::kAdcp;
  fp.ecmp_seed = derive_seed(p.opt.seed, kSaltEcmp);
  fp.loss_seed = derive_seed(p.opt.seed, kSaltLoss);
  p.build(fp);
  topo::Network& net = *p.net;
  const std::size_t hosts = net.host_count();
  const std::uint32_t vector_len = p.opt.quick ? 128 : 1024;  // gradient elements
  constexpr std::uint32_t kReduceElems = 8;
  constexpr std::uint32_t kBcastElems = 16;
  const std::uint32_t reduce_pkts = vector_len / kReduceElems;
  const std::uint32_t bcast_pkts = vector_len / kBcastElems;
  const sim::Time straggle = 4 * sim::kMicrosecond;

  // Reduce flows take ledger indices [0, hosts - 1), broadcast flows follow.
  std::vector<std::uint32_t> reduce_flow(hosts), bcast_flow(hosts);
  std::vector<sim::Time> start(hosts);
  sim::Rng rng(derive_seed(p.opt.seed, kSaltTraffic));
  for (std::size_t w = 1; w < hosts; ++w) {
    reduce_flow[w] = p.ledger.add_flow(reduce_pkts);
    start[w] = static_cast<sim::Time>(rng.uniform(0, straggle));
  }
  for (std::size_t w = 1; w < hosts; ++w) bcast_flow[w] = p.ledger.add_flow(bcast_pkts);
  const std::uint64_t expected = static_cast<std::uint64_t>(hosts - 1) * reduce_pkts;

  std::uint64_t reduced = 0;  // host 0's shard only
  bool broadcast_started = false;
  const auto broadcast = [&] {
    broadcast_started = true;
    p.inject([&] {
      for (std::size_t w = 1; w < hosts; ++w) {
        packet::IncPacketSpec spec = data_spec(net, 0, w, bcast_flow[w]);
        for (std::uint32_t s = 0; s < bcast_pkts; ++s) {
          set_payload(spec, s, kBcastElems, 0xa11);
          p.send(0, spec);
        }
      }
    });
  };
  const sim::Simulator* ps_sim = &net.sim_of_host(0);
  net.host(0).add_rx_callback([&, ps_sim](adcp::net::Host&, const packet::Packet& pkt) {
    const std::int64_t f = p.ledger.on_rx(pkt, ps_sim->now());
    if (f >= 0 && static_cast<std::size_t>(f) < hosts - 1 && ++reduced == expected) broadcast();
  });
  std::vector<std::size_t> workers;
  for (std::size_t w = 1; w < hosts; ++w) workers.push_back(w);
  sink_on(p, workers);
  p.ready();

  p.begin_inject();
  p.inject([&] {
    for (std::size_t w = 1; w < hosts; ++w) {
      packet::IncPacketSpec spec = data_spec(net, w, 0, reduce_flow[w]);
      for (std::uint32_t s = 0; s < reduce_pkts; ++s) {
        set_payload(spec, s, kReduceElems, static_cast<std::uint32_t>(w) + 1);
        p.send(w, spec, start[w]);
      }
    }
  });
  p.run();
  if (!broadcast_started) p.r.errors.push_back("allreduce: the broadcast never started");
  p.finish(/*lossless=*/true);
}

/// Leaf–spine 2x2x9 of RMT switches with the in-band control channel,
/// ControlPlane + ControlAgent and the flow cache: open-loop churn queries
/// beside a repeated background incast into host 0.
void churn_ls_rmt(Pass& p) {
  topo::LeafSpineParams lp;
  lp.leaves = 2;
  lp.spines = 2;
  // hosts + spines + management port stay a multiple of 4, so every leaf
  // keeps 4 ingress pipelines (the RMT store replication under test).
  lp.hosts_per_leaf = p.opt.quick ? 5 : 9;
  lp.kind = topo::SwitchKind::kRmt;
  lp.control_channel = true;
  lp.profile.fastpath_entries = 4096;
  lp.ecmp_seed = derive_seed(p.opt.seed, kSaltEcmp);
  lp.loss_seed = derive_seed(p.opt.seed, kSaltLoss);
  p.build(lp);
  topo::Network& net = *p.net;
  const std::size_t backing = net.host_count() - 1;

  const std::uint64_t c0 = p.clock.now();
  ctrl::ControlPlaneConfig cpc;
  cpc.store_capacity = 64;
  ctrl::ControlPlane cp(cpc, net);
  cp.attach_all();
  ctrl::ControlAgentConfig acfg;
  acfg.period = 25 * sim::kMicrosecond;
  acfg.hot_set = 48;
  acfg.update_budget = 96;
  ctrl::ControlAgent agent(acfg, net, backing);
  agent.add_all_targets();
  agent.start();
  p.clock.add(kCtrl, c0, p.clock.now());

  workload::ChurnParams wp;
  wp.backing_host = backing;
  wp.key_space = 512;
  wp.zipf_skew = 1.0;
  wp.queries_per_client = p.opt.quick ? 200 : 3000;
  wp.shift_period = 200 * sim::kMicrosecond;
  wp.shift_step = 64;
  wp.seed = derive_seed(p.opt.seed, kSaltZipf);
  workload::ChurnQuery churn(wp, net);

  // Background incast: 4 hosts of the far leaf (never the backing host),
  // picked by the seed, send 32 packets each into host 0 every 200 us,
  // each at a seeded jitter within its round. Clients start at a seeded
  // offset within one query interval.
  const std::size_t hpl = lp.hosts_per_leaf;
  std::vector<std::size_t> senders;
  for (std::size_t h = hpl; h < backing; ++h) senders.push_back(h);
  sim::Rng rng(derive_seed(p.opt.seed, kSaltTraffic));
  for (std::size_t i = senders.size(); i > 1; --i) {
    std::swap(senders[i - 1], senders[rng.index(i)]);
  }
  senders.resize(4);
  constexpr std::uint32_t kPkts = 32;
  constexpr std::uint32_t kElems = 8;
  const sim::Time period = 200 * sim::kMicrosecond;
  const sim::Time query_span = wp.interval * wp.queries_per_client;
  const auto rounds = static_cast<std::size_t>(query_span / period);
  // Within about one burst time, so the four bursts collide and queue.
  const sim::Time jitter = 300 * sim::kNanosecond;
  std::vector<std::vector<std::uint32_t>> flows(rounds);
  std::vector<std::vector<sim::Time>> at(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < senders.size(); ++s) {
      flows[r].push_back(p.ledger.add_flow(kPkts));
      at[r].push_back(period / 4 + r * period + rng.uniform(0, jitter));
    }
  }
  const auto client_start = static_cast<sim::Time>(rng.uniform(0, wp.interval));
  sink_on(p, {0});
  p.ready();

  p.begin_inject();
  churn.start(client_start);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < senders.size(); ++s) {
      const std::size_t src = senders[s];
      const std::uint32_t flow = flows[r][s];
      net.sim_of_host(src).at(at[r][s], [&p, &net, src, flow] {
        p.inject([&] {
          packet::IncPacketSpec spec = data_spec(net, src, 0, flow);
          for (std::uint32_t q = 0; q < kPkts; ++q) {
            set_payload(spec, q, kElems, flow);
            p.send(src, spec);
          }
        });
      });
    }
  }
  // The agent polls through every(), which never drains on its own: stop it
  // once the last query could have been issued.
  net.sim_of_host(backing).at(client_start + query_span + 100 * sim::kMicrosecond,
                              [&agent] { agent.stop(); });
  p.run();

  if (churn.outstanding() != 0) {
    p.r.errors.push_back("churn: " + std::to_string(churn.outstanding()) + " queries unanswered");
  }
  if (churn.hits() == 0) p.r.errors.push_back("churn: no query hit a switch store");
  p.extra_offered = churn.sent();
  p.extra_delivered = churn.hits() + churn.misses();
  for (std::size_t h = 0; h < backing; ++h) {
    p.extra_done = std::max(p.extra_done, net.host(h).last_rx_time());
  }
  const double queries = churn.sent() == 0 ? 1.0 : static_cast<double>(churn.sent());
  const std::uint64_t lookups = cp.total_hits() + cp.total_misses();
  sim::Summary lat = churn.hit_latency_ns();
  lat.merge(churn.miss_latency_ns());
  auto& c = p.r.counts;
  c["ctrl.update_pkts_per_kquery"] = static_cast<double>(agent.update_packets()) * 1000.0 / queries;
  c["ctrl.store_hit_rate"] =
      lookups == 0 ? 0.0 : static_cast<double>(cp.total_hits()) / static_cast<double>(lookups);
  c["ctrl.staleness_misses"] = static_cast<double>(cp.total_staleness_misses());
  c["ctrl.query_lat_mean_us"] = lat.mean() / 1000.0;
  p.finish(/*lossless=*/true);
}

/// fat_tree(4) of RMT switches with INT stamping, postcards, the collector
/// and the heavy-hitter sketch armed, small TM buffers: open-loop skewed
/// incast rounds at a fixed simulated period into a rotating sink.
void int_incast_ft4_rmt(Pass& p) {
  topo::FatTreeParams fp;
  fp.k = 4;
  fp.kind = topo::SwitchKind::kRmt;
  fp.ecmp_seed = derive_seed(p.opt.seed, kSaltEcmp);
  fp.loss_seed = derive_seed(p.opt.seed, kSaltLoss);
  topo::TierProfile& prof = fp.profile;
  prof.fastpath_entries = 0;
  prof.rmt_base.tm_buffer_bytes = 24 << 10;
  prof.rmt_base.ecn_threshold_bytes = 4 << 10;
  prof.telemetry.armed = true;
  prof.telemetry.report_sample_every = 2;
  prof.telemetry.postcard_min_gap = 100 * sim::kNanosecond;
  prof.telemetry.sketch = true;
  prof.telemetry.sketch_ways = 4;
  prof.telemetry.sketch_slots = 8;
  prof.telemetry.seed = derive_seed(p.opt.seed, kSaltTelem);
  p.build(fp);
  topo::Network& net = *p.net;
  const std::size_t collector = net.collector_host();

  // Per round: every host but the sink and the collector sends 4 flows;
  // the first flow of 8 seeded senders is heavy.
  constexpr std::uint32_t kFlowsPerSender = 4;
  constexpr std::uint32_t kHeavySenders = 8;
  constexpr std::uint32_t kHeavyPkts = 120;
  constexpr std::uint32_t kLightPkts = 8;
  constexpr std::uint32_t kElems = 4;
  const std::size_t rounds = p.opt.quick ? 4 : 40;
  const sim::Time period = 20 * sim::kMicrosecond;
  struct Flow {
    std::size_t src;
    std::size_t dst;
    std::uint32_t id;
    std::uint32_t packets;
  };
  std::vector<std::vector<std::vector<Flow>>> plan(rounds);  // round -> sender -> flows
  sim::Rng rng(derive_seed(p.opt.seed, kSaltTraffic));
  const std::size_t sink0 = rng.index(collector);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t sink = (sink0 + r) % collector;
    std::vector<std::size_t> senders;
    for (std::size_t h = 0; h < collector; ++h) {
      if (h != sink) senders.push_back(h);
    }
    // The first kHeavySenders of a seeded shuffle get the heavy flows.
    for (std::size_t i = senders.size(); i > 1; --i) {
      std::swap(senders[i - 1], senders[rng.index(i)]);
    }
    for (std::size_t k = 0; k < senders.size(); ++k) {
      std::vector<Flow> fl;
      for (std::uint32_t f = 0; f < kFlowsPerSender; ++f) {
        const std::uint32_t n = f == 0 && k < kHeavySenders ? kHeavyPkts : kLightPkts;
        fl.push_back({senders[k], sink, p.ledger.add_flow(n), n});
      }
      plan[r].push_back(std::move(fl));
    }
  }
  std::vector<std::size_t> sinks;
  for (std::size_t h = 0; h < collector; ++h) sinks.push_back(h);
  sink_on(p, sinks);
  p.ready();

  p.begin_inject();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const std::vector<Flow>& fl : plan[r]) {
      net.sim_of_host(fl.front().src).at(r * period, [&p, &net, &fl] {
        p.inject([&] {
          for (const Flow& f : fl) {
            packet::IncPacketSpec spec = data_spec(net, f.src, f.dst, f.id);
            for (std::uint32_t s = 0; s < f.packets; ++s) {
              set_payload(spec, s, kElems, f.id);
              p.send(f.src, spec);
            }
          }
        });
      });
    }
  }
  p.run();
  p.finish(/*lossless=*/false);
}

}  // namespace

PassResult run_pass(const Options& opt, PassMode mode) {
  Pass p(opt, mode);
  switch (opt.id) {
    case WorkloadId::kAllreduceFt8Adcp:
      allreduce_ft8_adcp(p);
      break;
    case WorkloadId::kChurnLsRmt:
      churn_ls_rmt(p);
      break;
    case WorkloadId::kIntIncastFt4Rmt:
      int_incast_ft4_rmt(p);
      break;
  }
  return std::move(p.r);
}

}  // namespace perfbench

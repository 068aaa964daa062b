// Control-plane co-simulation: the kCtrlUpdate wire mapping, the versioned
// two-slot handoff (no torn batches, staleness accounting, capacity
// rejection), runtime Zipf popularity shifts, the end-to-end in-band
// update path (agent -> fabric -> management port -> store), and the
// determinism pin: the full churn scenario — ControlAgent polling,
// update batches crossing shard mailboxes, epoch flips on switch shards,
// shifting-Zipf clients — must be byte-identical for any PDES worker
// count, snapshots and span traces both.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/agent.hpp"
#include "ctrl/control_plane.hpp"
#include "mat/versioned.hpp"
#include "packet/control.hpp"
#include "packet/headers.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "support/fabric.hpp"
#include "topo/network.hpp"
#include "workload/churn.hpp"

namespace adcp {
namespace {

using test::fnv1a;

// --- wire format -----------------------------------------------------------

TEST(ControlWire, EncodeDecodeRoundTrip) {
  packet::ControlUpdate update;
  update.epoch = 42;
  update.seq = 7;
  update.commit = true;
  update.entries = {
      {packet::CtrlOp::kInstall, 0x00ab'cdef, 1234},
      {packet::CtrlOp::kEvict, 0x0012'3456, 0},
      {packet::CtrlOp::kInstall, packet::kCtrlKeyMask, 0xffff'ffff},
  };

  packet::IncPacketSpec spec;
  packet::encode_ctrl(update, spec);
  EXPECT_EQ(spec.inc.opcode, packet::IncOpcode::kCtrlUpdate);
  EXPECT_EQ(spec.inc.flow_id, 42u);

  packet::ControlUpdate out;
  ASSERT_TRUE(packet::decode_ctrl(spec.inc, out));
  EXPECT_EQ(out, update);
}

TEST(ControlWire, DecodeRejectsOtherOpcodes) {
  packet::IncHeader inc;
  inc.opcode = packet::IncOpcode::kChurnQuery;
  packet::ControlUpdate out;
  EXPECT_FALSE(packet::decode_ctrl(inc, out));
}

// --- versioned handoff -----------------------------------------------------

TEST(VersionedStore, StagedEntriesInvisibleUntilCommit) {
  mat::VersionedStore store(8);
  packet::ControlUpdate u;
  u.entries = {{packet::CtrlOp::kInstall, 1, 100},
               {packet::CtrlOp::kInstall, 2, 200}};
  store.stage(u, 10 * sim::kMicrosecond);

  // A staged-but-uncommitted key is the staleness window: the lookup is a
  // miss, but an attributed one.
  std::uint32_t v = 0;
  EXPECT_EQ(store.lookup(1, v), mat::VersionedStore::Lookup::kMissPending);
  EXPECT_EQ(store.lookup(3, v), mat::VersionedStore::Lookup::kMiss);
  EXPECT_EQ(store.epoch(), 0u);

  store.commit(20 * sim::kMicrosecond);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.lookup(1, v), mat::VersionedStore::Lookup::kHit);
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(store.lookup(2, v), mat::VersionedStore::Lookup::kHit);
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(VersionedStore, BatchSpansPacketsAndFlipsAtomically) {
  mat::VersionedStore store(8);
  packet::ControlUpdate first;
  first.entries = {{packet::CtrlOp::kInstall, 1, 100}};
  packet::ControlUpdate second;
  second.entries = {{packet::CtrlOp::kInstall, 2, 200},
                    {packet::CtrlOp::kEvict, 1, 0}};
  store.stage(first, 0);
  store.stage(second, sim::kMicrosecond);
  store.commit(2 * sim::kMicrosecond);

  // Both packets applied in arrival order in ONE flip: the install of key
  // 1 happened, then its evict — no torn intermediate state is visible.
  std::uint32_t v = 0;
  EXPECT_EQ(store.lookup(1, v), mat::VersionedStore::Lookup::kMiss);
  EXPECT_EQ(store.lookup(2, v), mat::VersionedStore::Lookup::kHit);
  EXPECT_EQ(store.epoch(), 1u);
}

TEST(VersionedStore, CapacityRejectsOverflowAndEvictFreesRoom) {
  mat::VersionedStore store(2);
  packet::ControlUpdate u;
  u.entries = {{packet::CtrlOp::kInstall, 1, 10},
               {packet::CtrlOp::kInstall, 2, 20},
               {packet::CtrlOp::kInstall, 3, 30}};  // over capacity
  store.stage(u, 0);
  store.commit(sim::kMicrosecond);
  std::uint32_t v = 0;
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.lookup(3, v), mat::VersionedStore::Lookup::kMiss);

  packet::ControlUpdate swap;
  swap.entries = {{packet::CtrlOp::kEvict, 1, 0},
                  {packet::CtrlOp::kInstall, 3, 30}};
  store.stage(swap, 2 * sim::kMicrosecond);
  store.commit(3 * sim::kMicrosecond);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.lookup(3, v), mat::VersionedStore::Lookup::kHit);
  EXPECT_EQ(store.lookup(1, v), mat::VersionedStore::Lookup::kMiss);
  // Overwriting an existing key never needs room.
  packet::ControlUpdate over;
  over.entries = {{packet::CtrlOp::kInstall, 2, 99}};
  store.stage(over, 4 * sim::kMicrosecond);
  store.commit(5 * sim::kMicrosecond);
  EXPECT_EQ(store.lookup(2, v), mat::VersionedStore::Lookup::kHit);
  EXPECT_EQ(v, 99u);
}

// --- runtime popularity shift ----------------------------------------------

TEST(ZipfShift, OffsetRotatesIdentityNotShape) {
  sim::Zipf base(100, 1.0);
  sim::Zipf shifted(100, 1.0);
  shifted.set_offset(37);

  // Same rng stream: every sample must be the base sample rotated by the
  // offset — the popularity shape is untouched, only which keys are hot.
  sim::Rng a(123);
  sim::Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(shifted.sample(b), (base.sample(a) + 37) % 100);
  }
  shifted.set_offset(237);  // reduced modulo size
  EXPECT_EQ(shifted.offset(), 37u);
}

// --- end-to-end: in-band updates over the fabric ---------------------------

TEST(ControlChurn, InBandUpdatesReachStoresAndServeHits) {
  sim::Simulator sim;
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
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
  wp.key_space = 256;
  wp.queries_per_client = 150;
  wp.shift_period = 150 * sim::kMicrosecond;
  wp.shift_step = 80;
  workload::ChurnQuery churn(wp, net);
  churn.start(0);

  const sim::Time t_stop =
      wp.interval * wp.queries_per_client + 100 * sim::kMicrosecond;
  sim.at(t_stop, [&agent] { agent.stop(); });
  sim.run();

  // Every query got exactly one reply, and the switches answered a real
  // share of them from state installed purely via in-band packets.
  EXPECT_EQ(churn.hits() + churn.misses(), churn.sent());
  EXPECT_EQ(churn.outstanding(), 0u);
  EXPECT_GT(churn.hits(), 0u);
  EXPECT_GT(agent.update_packets(), 0u);
  EXPECT_GT(cp.total_installs(), 0u);
  // Both edge switches were managed and flipped epochs.
  std::size_t attached = 0;
  for (std::size_t i = 0; i < net.switch_count(); ++i) {
    if (!cp.attached(i)) continue;
    ++attached;
    EXPECT_GT(cp.store_of(i).epoch(), 0u) << "switch " << i;
  }
  EXPECT_EQ(attached, 2u);
  // The miss path costs the backing-store service time; hits avoid it.
  EXPECT_GT(churn.miss_latency_ns().mean(), churn.hit_latency_ns().mean());
}

// --- the determinism pin ---------------------------------------------------

struct ChurnRun {
  std::uint64_t events = 0;
  sim::Time now = 0;
  std::uint64_t hash = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t update_packets = 0;
  std::string perfetto;
  fastpath::FlowCacheStats fp;
};

/// The full co-simulation with tracing armed, sharded `threads` wide:
/// control batches and query replies cross shard mailboxes, commits flip
/// on switch shards, clients shift popularity on their own clocks.
/// `fastpath_entries` arms the per-switch flow cache (0 = off); everything
/// in the returned pin except `fp` must be independent of it.
ChurnRun run_churn_parallel(unsigned threads, std::uint32_t fastpath_entries = 0) {
  sim::ParallelSimulator psim(threads);
  topo::LeafSpineParams p;
  p.leaves = 2;
  p.spines = 2;
  p.hosts_per_leaf = 4;
  p.control_channel = true;
  p.trace.sample_every = 2;
  p.profile.fastpath_entries = fastpath_entries;
  topo::Network net(psim, p);

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
  wp.key_space = 256;
  wp.queries_per_client = 100;
  wp.shift_period = 120 * sim::kMicrosecond;
  wp.shift_step = 80;
  workload::ChurnQuery churn(wp, net);
  churn.start(0);

  const sim::Time t_stop =
      wp.interval * wp.queries_per_client + 100 * sim::kMicrosecond;
  net.sim_of_host(backing).at(t_stop, [&agent] { agent.stop(); });

  ChurnRun r;
  r.events = psim.run();
  net.finalize_metrics();
  r.now = psim.now();
  r.hash = fnv1a(net.merged_snapshot().to_json("pin"));
  r.hits = churn.hits();
  r.misses = churn.misses();
  r.update_packets = agent.update_packets();
  r.perfetto = sim::spans_to_perfetto(net.span_buffers());
  r.fp = net.fastpath_totals();
  EXPECT_EQ(churn.outstanding(), 0u) << "threads=" << threads;
  return r;
}

TEST(ControlChurn, DeterministicAcrossWorkerCounts) {
  const ChurnRun pin = run_churn_parallel(1);
  ASSERT_GT(pin.hits, 0u);
  ASSERT_GT(pin.update_packets, 0u);
  ASSERT_FALSE(pin.perfetto.empty());

  for (unsigned threads : {2u, 4u, 8u}) {
    const ChurnRun r = run_churn_parallel(threads);
    EXPECT_EQ(r.events, pin.events) << "threads=" << threads;
    EXPECT_EQ(r.now, pin.now) << "threads=" << threads;
    EXPECT_EQ(r.hash, pin.hash) << "threads=" << threads;
    EXPECT_EQ(r.hits, pin.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, pin.misses) << "threads=" << threads;
    EXPECT_EQ(r.update_packets, pin.update_packets) << "threads=" << threads;
    EXPECT_EQ(r.perfetto, pin.perfetto) << "threads=" << threads;
  }
}

/// The same pin with the datapath fast path armed: churn traffic under
/// live kCtrlUpdate install/evict batches and VersionedStore commit flips
/// must observe byte-identical snapshots AND span traces with the cache on
/// — at every worker count — and the epoch machinery must actually have
/// exercised both sides (hits before flips, bulk invalidations at flips,
/// refills after). A stale post-commit verdict would split churn.hits vs
/// the cache-off pin and fail the hash/trace equality.
TEST(ControlChurn, FastpathPreservesChurnSemanticsAcrossWorkerCounts) {
  const ChurnRun pin = run_churn_parallel(1, 0);  // cache off: the truth
  ASSERT_GT(pin.hits, 0u);
  ASSERT_EQ(pin.fp.hits + pin.fp.misses, 0u);  // off really means off

  // Attribution on the single-worker armed run: the cache worked (hits),
  // churn invalidated it (every stage/commit bulk-drops live entries), and
  // it refilled after flips.
  const ChurnRun armed = run_churn_parallel(1, 512);
  EXPECT_GT(armed.fp.hits, 0u);
  EXPECT_GT(armed.fp.invalidations, 0u);
  EXPECT_GT(armed.fp.misses, 0u);

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const ChurnRun r = threads == 1 ? armed : run_churn_parallel(threads, 512);
    EXPECT_EQ(r.events, pin.events) << "threads=" << threads;
    EXPECT_EQ(r.now, pin.now) << "threads=" << threads;
    EXPECT_EQ(r.hash, pin.hash) << "threads=" << threads;
    EXPECT_EQ(r.hits, pin.hits) << "threads=" << threads;
    EXPECT_EQ(r.misses, pin.misses) << "threads=" << threads;
    EXPECT_EQ(r.update_packets, pin.update_packets) << "threads=" << threads;
    EXPECT_EQ(r.perfetto, pin.perfetto) << "threads=" << threads;
    // The cache counters are part of the determinism surface too.
    EXPECT_EQ(r.fp.hits, armed.fp.hits) << "threads=" << threads;
    EXPECT_EQ(r.fp.misses, armed.fp.misses) << "threads=" << threads;
    EXPECT_EQ(r.fp.invalidations, armed.fp.invalidations) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace adcp

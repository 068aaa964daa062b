// The unified observability layer: registry round-trips, deterministic
// snapshot ordering, scoped registration, and simulated-time sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace adcp::sim {
namespace {

// Pulls the number following "\"key\":" inside the object named `metric`
// in an adcp-metrics-v1 JSON document. Minimal by design: the schema is
// flat and the test controls the input.
double json_field(const std::string& json, const std::string& metric,
                  const std::string& key) {
  const std::size_t obj = json.find("\"" + metric + "\":{");
  EXPECT_NE(obj, std::string::npos) << metric << " missing from " << json;
  const std::size_t k = json.find("\"" + key + "\":", obj);
  EXPECT_NE(k, std::string::npos);
  return std::strtod(json.c_str() + k + key.size() + 3, nullptr);
}

TEST(MetricRegistry, RegisterRecordSnapshotJsonRoundTrip) {
  MetricRegistry reg;
  Scope sw = reg.scope("rmt0");
  Counter& drops = sw.scope("tm").counter("drops.admission");
  Gauge& depth = sw.gauge("queue.depth");
  Gauge& ratio = sw.gauge("hit_ratio");
  Histogram& lat = sw.histogram("latency_ps");

  drops.add(7);
  depth.set(12.5);
  ratio.set(0.1);  // 0.1 is not exactly representable: %.17g must survive
  for (int i = 1; i <= 100; ++i) lat.record(static_cast<double>(i));

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries().size(), 4u);
  EXPECT_EQ(snap.value("rmt0.tm.drops.admission"), 7.0);
  EXPECT_EQ(snap.value("rmt0.queue.depth"), 12.5);
  const Snapshot::Entry* h = snap.find("rmt0.latency_ps");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 100u);
  EXPECT_DOUBLE_EQ(h->value, 50.5);

  const std::string json = snap.to_json("unit_test");
  EXPECT_NE(json.find("\"schema\":\"adcp-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_EQ(json_field(json, "rmt0.tm.drops.admission", "value"), 7.0);
  EXPECT_EQ(json_field(json, "rmt0.queue.depth", "value"), 12.5);
  EXPECT_EQ(json_field(json, "rmt0.hit_ratio", "value"), 0.1);
  EXPECT_EQ(json_field(json, "rmt0.latency_ps", "count"), 100.0);
  // Histogram::quantile indexes q*(n-1): p99 of 1..100 is sample 98.
  EXPECT_EQ(json_field(json, "rmt0.latency_ps", "p99"), 99.0);
}

/// The topology layer's hop-count histogram ("topo.hops") must survive the
/// JSON exporter: count and the p50/p99/min/max of a typical leaf–spine
/// hop mix (1 intra-rack, 3 cross-rack) come back exactly.
TEST(MetricRegistry, TopoHopsHistogramJsonRoundTrip) {
  MetricRegistry reg;
  Histogram& hops = reg.scope("topo").histogram("hops");
  for (int i = 0; i < 25; ++i) hops.record(1.0);
  for (int i = 0; i < 75; ++i) hops.record(3.0);

  const std::string json = reg.snapshot().to_json("topo_unit");
  EXPECT_EQ(json_field(json, "topo.hops", "count"), 100.0);
  EXPECT_EQ(json_field(json, "topo.hops", "p50"), 3.0);
  EXPECT_EQ(json_field(json, "topo.hops", "p99"), 3.0);
  EXPECT_EQ(json_field(json, "topo.hops", "value"), 2.5);  // mean
}

TEST(MetricRegistry, SnapshotOrderIndependentOfRegistrationOrder) {
  const std::vector<std::string> names = {"rmt0.tx.packets", "core0.tm1.enqueued",
                                          "rmt0.tm.drops.admission", "a", "z.z"};
  MetricRegistry forward, backward;
  for (const auto& n : names) forward.counter(n).add(1);
  for (auto it = names.rbegin(); it != names.rend(); ++it) backward.counter(*it).add(1);

  const Snapshot f = forward.snapshot();
  const Snapshot b = backward.snapshot();
  ASSERT_EQ(f.entries().size(), b.entries().size());
  for (std::size_t i = 0; i < f.entries().size(); ++i) {
    EXPECT_EQ(f.entries()[i].name, b.entries()[i].name);
  }
  for (std::size_t i = 1; i < f.entries().size(); ++i) {
    EXPECT_LT(f.entries()[i - 1].name, f.entries()[i].name);
  }
  EXPECT_EQ(f.to_json("x"), b.to_json("x"));

  // A fabric's worth of names sharing long prefixes, registered in two
  // seeded shuffles: each snapshot lists every name once, in sorted order.
  std::vector<std::string> fabric;
  for (int sw = 0; sw < 250; ++sw) {
    for (int q = 0; q < 20; ++q) {
      fabric.push_back("topo.sw" + std::to_string(sw) + ".tm1.queue" + std::to_string(q) +
                       ".drops.admission");
    }
  }
  std::vector<std::string> sorted = fabric;
  std::sort(sorted.begin(), sorted.end());
  std::string json;
  for (const std::uint64_t seed : {1u, 2u}) {
    std::vector<std::string> order = fabric;
    std::shuffle(order.begin(), order.end(), std::mt19937_64{seed});
    MetricRegistry reg;
    for (const std::string& n : order) reg.counter(n).add(n.size());
    const Snapshot snap = reg.snapshot();
    std::vector<std::string> listed;
    for (const Snapshot::Entry& e : snap.entries()) listed.push_back(e.name);
    EXPECT_EQ(listed, sorted) << "seed " << seed;
    if (json.empty()) {
      json = snap.to_json("x");
    } else {
      EXPECT_EQ(snap.to_json("x"), json);
    }
  }
}

TEST(MetricRegistry, ReRegistrationReturnsSameMetric) {
  MetricRegistry reg;
  Counter& first = reg.scope("core0").scope("tm1").counter("enqueued");
  first.add(3);
  // A component rebuilt by load_program re-binds to the same counter.
  Counter& second = reg.scope("core0.tm1").counter("enqueued");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);

  // The registry keeps the metric where it was as it grows by many rehashes
  // (a flat hash map would move it).
  for (int i = 0; i < 10000; ++i) {
    reg.counter("topo.sw" + std::to_string(i) + ".rx.packets").add(1);
    reg.gauge("topo.sw" + std::to_string(i) + ".tm1.depth").set(i);
  }
  Counter& third = reg.counter("core0.tm1.enqueued");
  EXPECT_EQ(&third, &first);
  EXPECT_EQ(third.value(), 3u);
  EXPECT_EQ(reg.size(), 20001u);
}

TEST(Scope, DetachedScopeFallsBackToPrivateRegistry) {
  std::unique_ptr<MetricRegistry> own;
  const Scope resolved = resolve_scope(Scope{}, own, "tm");
  ASSERT_TRUE(resolved.attached());
  ASSERT_NE(own, nullptr);
  resolved.counter("enqueued").add(2);
  EXPECT_EQ(own->snapshot().value("tm.enqueued"), 2.0);

  // An attached request leaves `own` untouched.
  MetricRegistry shared;
  std::unique_ptr<MetricRegistry> unused;
  const Scope kept = resolve_scope(shared.scope("rmt0"), unused, "rmt");
  EXPECT_EQ(unused, nullptr);
  EXPECT_EQ(kept.registry(), &shared);
  EXPECT_EQ(kept.prefix(), "rmt0");
}

TEST(TimeSeriesSampler, PollsOnSimulatedCadence) {
  Simulator sim;
  MetricRegistry reg;
  Counter& events = reg.counter("events");
  Gauge& level = reg.gauge("level");

  TimeSeriesSampler sampler(sim, 1000);
  sampler.add_counter("events", events);
  sampler.add_gauge("level", level);

  for (Time t = 100; t <= 3500; t += 100) {
    sim.at(t, [&events, &level] {
      events.add();
      level.add(0.5);
    });
  }
  sampler.start();
  sim.at(3600, [&sampler] { sampler.stop(); });
  sim.run();

  // Ticks at 1000, 2000, 3000 (stopped before 4000).
  ASSERT_EQ(sampler.times().size(), 3u);
  EXPECT_EQ(sampler.times()[0], 1000u);
  EXPECT_EQ(sampler.times()[2], 3000u);
  ASSERT_EQ(sampler.columns().size(), 2u);
  // The increments were scheduled before start(), so FIFO order at equal
  // timestamps runs them before each tick: the tick at t sees t/100 events.
  EXPECT_EQ(sampler.columns()[0][0], 10.0);
  EXPECT_EQ(sampler.columns()[0][2], 30.0);
  EXPECT_DOUBLE_EQ(sampler.columns()[1][1], 10.0);

  // The Perfetto form: one track per label, each on the shared time axis.
  const std::vector<CounterSeries> series = sampler.counter_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].track, "events");
  EXPECT_EQ(series[1].track, "level");
  for (const CounterSeries& cs : series) EXPECT_EQ(cs.times, sampler.times());
  EXPECT_EQ(series[0].values, sampler.columns()[0]);
  EXPECT_EQ(series[1].values, sampler.columns()[1]);
}

TEST(TimeSeriesSampler, UnstartedSamplerSchedulesNothing) {
  Simulator sim;
  MetricRegistry reg;
  TimeSeriesSampler sampler(sim, 1000);
  sampler.add_counter("x", reg.counter("x"));
  int fired = 0;
  sim.at(500, [&fired] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);  // only the explicit event; no sampler ticks
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sampler.times().empty());
}

// --- Snapshot::merge edge cases -------------------------------------------
//
// The parallel driver merges per-shard snapshots where a metric may exist
// on one shard only, or exist with zero samples — the union-merge must
// stay byte-identical to a single registry that saw everything.

TEST(SnapshotMerge, EmptyHistogramMergesAsIdentity) {
  MetricRegistry a, b, seq;
  a.histogram("h");  // registered, never recorded
  for (int i = 0; i < 5; ++i) {
    b.histogram("h").record(10.0 * i);
    seq.histogram("h").record(10.0 * i);
  }

  // empty-into-full and full-into-empty must both equal the sequential.
  Snapshot full = b.snapshot();
  full.merge(a.snapshot());
  EXPECT_EQ(full.to_json("m"), seq.snapshot().to_json("m"));
  Snapshot empty = a.snapshot();
  empty.merge(b.snapshot());
  EXPECT_EQ(empty.to_json("m"), seq.snapshot().to_json("m"));

  // Both sides empty: still a well-formed zero-count entry, not NaNs.
  MetricRegistry c;
  c.histogram("h");
  Snapshot both = a.snapshot();
  both.merge(c.snapshot());
  const Snapshot::Entry* e = both.find("h");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 0u);
  EXPECT_EQ(e->value, 0.0);
}

TEST(SnapshotMerge, SummaryMergeWithOneEmptySide) {
  MetricRegistry a, b, seq;
  a.summary("s");  // zero count
  const double xs[] = {4.0, -1.0, 7.5};
  for (const double x : xs) {
    b.summary("s").record(x);
    seq.summary("s").record(x);
  }

  Snapshot m = a.snapshot();
  m.merge(b.snapshot());
  // The empty side must not drag min/max/mean toward zero.
  EXPECT_EQ(m.to_json("m"), seq.snapshot().to_json("m"));
  const Snapshot::Entry* e = m.find("s");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 3u);
  EXPECT_DOUBLE_EQ(e->min, -1.0);
  EXPECT_DOUBLE_EQ(e->max, 7.5);

  Snapshot rev = b.snapshot();
  rev.merge(a.snapshot());
  EXPECT_EQ(rev.to_json("m"), seq.snapshot().to_json("m"));
}

TEST(SnapshotMerge, DisjointNameSetsUnionVerbatim) {
  MetricRegistry a, b, seq;
  a.counter("shard0.rx").add(11);
  a.gauge("shard0.depth").set(2.5);
  b.counter("shard1.rx").add(13);
  b.histogram("shard1.lat").record(42.0);
  seq.counter("shard0.rx").add(11);
  seq.gauge("shard0.depth").set(2.5);
  seq.counter("shard1.rx").add(13);
  seq.histogram("shard1.lat").record(42.0);

  // No shared names: every entry is copied verbatim and the result is
  // sorted-name identical to the one-registry world, in either direction.
  Snapshot ab = a.snapshot();
  ab.merge(b.snapshot());
  EXPECT_EQ(ab.to_json("m"), seq.snapshot().to_json("m"));
  Snapshot ba = b.snapshot();
  ba.merge(a.snapshot());
  EXPECT_EQ(ba.to_json("m"), seq.snapshot().to_json("m"));
}

TEST(MetricRegistry, ResetZeroesEverything) {
  MetricRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(2.0);
  reg.histogram("h").record(1.0);
  reg.reset();
  EXPECT_EQ(reg.snapshot().value("c"), 0.0);
  EXPECT_EQ(reg.snapshot().value("g"), 0.0);
  EXPECT_EQ(reg.snapshot().find("h")->count, 0u);
}

}  // namespace
}  // namespace adcp::sim

// Randomized equivalence of the slab/min-heap event kernel against a
// deliberately naive reference model.
//
// The production kernel (sim/simulator.hpp) earns its speed with a slab of
// reused slots, generation-checked handles, and lazily discarded stale heap
// entries — all invisible to callers, all easy to get subtly wrong. The
// RefKernel below has none of that: shared_ptr records, linear scan for the
// earliest event, O(n) everything. Both run identical randomized worlds
// (same seed, same decision stream) and must produce identical firing
// traces, time trajectories, and pending() counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace adcp::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference kernel: correct by inspection, slow by design.

class RefKernel {
 public:
  struct Ev {
    Time at = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    Time period = 0;     // 0 = one-shot
    bool alive = false;  // scheduled one-shot or active periodic
  };
  using Handle = std::shared_ptr<Ev>;

  [[nodiscard]] Time now() const { return now_; }

  Handle at(Time t, std::function<void()> fn) {
    auto ev = std::make_shared<Ev>();
    ev->at = t;
    ev->seq = next_seq_++;
    ev->fn = std::move(fn);
    ev->alive = true;
    events_.push_back(ev);
    return ev;
  }

  Handle after(Time delay, std::function<void()> fn) { return at(now_ + delay, std::move(fn)); }

  Handle every(Time period, Time phase, std::function<void()> fn) {
    Handle h = at(now_ + phase, std::move(fn));
    h->period = period;
    return h;
  }

  static void cancel(Handle& h) { h->alive = false; }

  std::uint64_t run() { return run_until(std::numeric_limits<Time>::max(), false); }

  std::uint64_t run_until(Time deadline) { return run_until(deadline, true); }

  // The half-open window [now, end) over integer time: everything at or
  // before end - 1, and now() is not bumped.
  std::uint64_t run_window(Time end) { return end == 0 ? 0 : run_until(end - 1, false); }

  [[nodiscard]] Time next_event_time() const {
    Time t = Simulator::kNoEventTime;
    for (const Handle& e : events_) {
      if (e->alive) t = std::min(t, e->at);
    }
    return t;
  }

  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(), [](const Handle& e) { return e->alive; }));
  }

 private:
  std::uint64_t run_until(Time deadline, bool clamp_now) {
    std::uint64_t executed = 0;
    for (;;) {
      Handle best;
      for (const Handle& e : events_) {
        if (!e->alive) continue;
        if (!best || e->at < best->at || (e->at == best->at && e->seq < best->seq)) best = e;
      }
      if (!best || best->at > deadline) break;
      now_ = best->at;
      best->fn();  // may schedule, cancel others, or cancel `best` itself
      if (best->period > 0) {
        if (best->alive) {  // not cancelled from inside its own callback
          best->at = now_ + best->period;
          best->seq = next_seq_++;
        }
      } else {
        best->alive = false;
      }
      ++executed;
      // Drop dead records so the scan (and memory) stays bounded.
      std::erase_if(events_, [](const Handle& e) { return !e->alive; });
    }
    if (clamp_now && now_ < deadline) now_ = deadline;
    return executed;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Handle> events_;
};

// Uniform facade over Simulator so the world template can treat both
// kernels identically (cancellation lives on EventHandle, not Simulator).
struct SimAdapter {
  using Handle = EventHandle;
  Simulator s;

  [[nodiscard]] Time now() const { return s.now(); }
  template <typename F>
  Handle at(Time t, F&& f) {
    return s.at(t, std::forward<F>(f));
  }
  template <typename F>
  Handle after(Time d, F&& f) {
    return s.after(d, std::forward<F>(f));
  }
  template <typename F>
  Handle every(Time period, Time phase, F&& f) {
    return s.every(period, phase, std::forward<F>(f));
  }
  static void cancel(Handle& h) { h.cancel(); }
  std::uint64_t run() { return s.run(); }
  std::uint64_t run_until(Time t) { return s.run_until(t); }
  std::uint64_t run_window(Time end) { return s.run_window(end); }
  [[nodiscard]] Time next_event_time() { return s.next_event_time(); }
  [[nodiscard]] std::size_t pending() const { return s.pending(); }
};

// ---------------------------------------------------------------------------
// Randomized world: both kernels execute the same seeded decision stream.
// Every callback consumes randomness from the world's own Rng, so the two
// runs stay in lockstep only if the kernels fire events in the same order.

struct Trace {
  std::vector<std::pair<int, Time>> firings;  // (event id, firing time)
  std::vector<Time> now_checkpoints;
  std::vector<Time> next_event_times;         // next_event_time() at checkpoints
  std::vector<std::size_t> pending_checkpoints;
  std::vector<std::uint64_t> segment_counts;  // events run per window/segment
  std::uint64_t executed_before_deadline = 0;
  std::uint64_t executed_total = 0;
  std::size_t pending_mid = 0;
  Time final_now = 0;
};

template <typename Kernel>
Trace run_world(std::uint64_t seed) {
  Kernel k;
  Rng rng(seed);
  Trace trace;
  int next_id = 0;
  std::vector<std::pair<int, typename Kernel::Handle>> handles;

  // Recursive scheduling action shared by seed events and callbacks.
  std::function<void(int)> fire = [&](int id) {
    trace.firings.emplace_back(id, k.now());
    const std::uint64_t roll = rng.uniform(0, 9);
    if (roll < 4 && next_id < 600) {
      // Schedule a follow-up, sometimes at the current timestamp to
      // exercise equal-time FIFO ordering.
      const Time delta = roll == 0 ? 0 : rng.uniform(1, 700);
      const int id2 = next_id++;
      handles.emplace_back(id2, k.after(delta, [&fire, id2] { fire(id2); }));
    } else if (roll < 6 && !handles.empty()) {
      // Cancel a random known handle (possibly already fired or our own).
      Kernel::cancel(handles[rng.index(handles.size())].second);
    }
  };

  for (int i = 0; i < 80; ++i) {
    const int id = next_id++;
    const Time t = rng.uniform(0, 4000);
    handles.emplace_back(id, k.at(t, [&fire, id] { fire(id); }));
  }
  for (int i = 0; i < 6; ++i) {
    const int id = next_id++;
    handles.emplace_back(
        id, k.every(rng.uniform(50, 400), rng.uniform(1, 300), [&fire, id] { fire(id); }));
  }

  trace.executed_before_deadline = k.run_until(2000);
  trace.now_checkpoints.push_back(k.now());
  trace.pending_mid = k.pending();

  // Periodic tasks never drain on their own: run a bounded tail, then
  // cancel everything and let run() consume the leftovers.
  trace.executed_before_deadline += k.run_until(6000);
  trace.now_checkpoints.push_back(k.now());
  for (auto& [id, h] : handles) Kernel::cancel(h);
  trace.executed_total = trace.executed_before_deadline + k.run();
  trace.final_now = k.now();
  return trace;
}

TEST(KernelEquivalence, RandomizedWorldsMatchReferenceModel) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 0xdeadbeefULL}) {
    const Trace fast = run_world<SimAdapter>(seed);
    const Trace ref = run_world<RefKernel>(seed);
    ASSERT_EQ(fast.firings.size(), ref.firings.size()) << "seed " << seed;
    EXPECT_EQ(fast.firings, ref.firings) << "seed " << seed;
    EXPECT_EQ(fast.now_checkpoints, ref.now_checkpoints) << "seed " << seed;
    EXPECT_EQ(fast.pending_mid, ref.pending_mid) << "seed " << seed;
    EXPECT_EQ(fast.executed_before_deadline, ref.executed_before_deadline) << "seed " << seed;
    EXPECT_EQ(fast.executed_total, ref.executed_total) << "seed " << seed;
    EXPECT_EQ(fast.final_now, ref.final_now) << "seed " << seed;
  }
}

// A world biased toward the zero-delay FIFO lane: most follow-ups are
// scheduled at now(), cancels aim at zero-delay events that may still sit
// in the FIFO, periodic tasks start with phase 0, and the run is cut into
// run_window()/run_until() segments with next_event_time() checkpoints and
// zero-delay schedules issued between segments.
template <typename Kernel>
Trace run_fifo_world(std::uint64_t seed) {
  Kernel k;
  Rng rng(seed);
  Trace trace;
  int next_id = 0;
  std::vector<std::pair<int, typename Kernel::Handle>> handles;
  std::vector<typename Kernel::Handle> zero_delay;  // every zero-delay schedule

  std::function<void(int)> fire = [&](int id) {
    trace.firings.emplace_back(id, k.now());
    const std::uint64_t roll = rng.uniform(0, 9);
    if (roll < 6 && next_id < 1500) {
      const Time delta = roll < 4 ? 0 : rng.uniform(1, 300);
      const int id2 = next_id++;
      auto h = k.after(delta, [&fire, id2] { fire(id2); });
      if (delta == 0) zero_delay.push_back(h);
      handles.emplace_back(id2, h);
    } else if (roll < 8 && !zero_delay.empty()) {
      Kernel::cancel(zero_delay[rng.index(zero_delay.size())]);
    } else if (roll < 9 && !handles.empty()) {
      Kernel::cancel(handles[rng.index(handles.size())].second);
    }
  };
  const auto schedule_now = [&] {
    const int id = next_id++;
    auto h = k.at(k.now(), [&fire, id] { fire(id); });
    zero_delay.push_back(h);
    handles.emplace_back(id, h);
  };
  const auto checkpoint = [&] {
    trace.now_checkpoints.push_back(k.now());
    trace.next_event_times.push_back(k.next_event_time());
    trace.pending_checkpoints.push_back(k.pending());
  };

  // Seeds on a coarse grid, so timestamps tie; the ones at t = 0 are
  // zero-delay from the start.
  for (int i = 0; i < 60; ++i) {
    const int id = next_id++;
    handles.emplace_back(id, k.at(rng.uniform(0, 30) * 50, [&fire, id] { fire(id); }));
  }
  for (int i = 0; i < 4; ++i) {
    const int id = next_id++;
    handles.emplace_back(id, k.every(rng.uniform(40, 300), 0, [&fire, id] { fire(id); }));
  }
  checkpoint();

  for (const Time end : {Time{0}, Time{400}, Time{401}, Time{900}, Time{1700}, Time{2600}}) {
    trace.segment_counts.push_back(k.run_window(end));
    checkpoint();
    for (int i = 0; i < 3; ++i) schedule_now();
    const int id = next_id++;
    handles.emplace_back(id, k.every(rng.uniform(100, 500), 0, [&fire, id] { fire(id); }));
  }
  trace.segment_counts.push_back(k.run_until(4000));
  checkpoint();
  schedule_now();
  trace.segment_counts.push_back(k.run_window(k.next_event_time() + 1));
  checkpoint();
  for (auto& [id, h] : handles) Kernel::cancel(h);
  checkpoint();
  trace.executed_total = k.run();
  trace.final_now = k.now();
  return trace;
}

TEST(KernelEquivalence, ZeroDelayHeavyWorldsMatchReferenceModel) {
  for (std::uint64_t seed : {3ULL, 11ULL, 99ULL, 2024ULL, 0xfeedULL, 0xc0ffeeULL}) {
    const Trace fast = run_fifo_world<SimAdapter>(seed);
    const Trace ref = run_fifo_world<RefKernel>(seed);
    ASSERT_EQ(fast.firings.size(), ref.firings.size()) << "seed " << seed;
    EXPECT_EQ(fast.firings, ref.firings) << "seed " << seed;
    EXPECT_EQ(fast.now_checkpoints, ref.now_checkpoints) << "seed " << seed;
    EXPECT_EQ(fast.next_event_times, ref.next_event_times) << "seed " << seed;
    EXPECT_EQ(fast.pending_checkpoints, ref.pending_checkpoints) << "seed " << seed;
    EXPECT_EQ(fast.segment_counts, ref.segment_counts) << "seed " << seed;
    EXPECT_EQ(fast.executed_total, ref.executed_total) << "seed " << seed;
    EXPECT_EQ(fast.final_now, ref.final_now) << "seed " << seed;
    // The world really exercised the lane: many same-time firings.
    std::size_t same_time = 0;
    for (std::size_t i = 1; i < fast.firings.size(); ++i) {
      same_time += fast.firings[i].second == fast.firings[i - 1].second;
    }
    EXPECT_GT(same_time, fast.firings.size() / 4) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Targeted regressions for the slab/generation machinery.

TEST(KernelEquivalence, ZeroDelayEventsFollowEarlierSameTimeHeapEntries) {
  // B and C sit in the heap at t=100; B's zero-delay follow-up D joins the
  // FIFO with a later sequence number, so C must still fire before D.
  Simulator sim;
  std::vector<char> order;
  sim.at(50, [&] {
    sim.at(100, [&] {
      order.push_back('B');
      sim.at(sim.now(), [&] { order.push_back('D'); });
    });
    sim.at(100, [&] { order.push_back('C'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'B', 'C', 'D'}));
}

TEST(KernelEquivalence, CancelledZeroDelayEventsNeverFire) {
  Simulator sim;
  std::vector<int> order;
  sim.at(20, [&] {
    EventHandle h = sim.at(sim.now(), [&order] { order.push_back(-1); });
    EXPECT_EQ(sim.next_event_time(), 20u);
    h.cancel();  // still queued in the FIFO lane
    EXPECT_EQ(sim.next_event_time(), Simulator::kNoEventTime);
    // Enough cancels to trigger stale compaction over the FIFO lane; the
    // survivors must keep their order.
    std::vector<EventHandle> hs;
    for (int i = 0; i < 200; ++i) {
      hs.push_back(sim.at(sim.now(), [&order, i] { order.push_back(i); }));
    }
    for (int i = 1; i < 200; i += 2) hs[i].cancel();
  });
  EXPECT_EQ(sim.run(), 101u);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], 2 * i);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) sim.at(100, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 32u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(KernelEquivalence, PendingCountsOnlyLiveEvents) {
  Simulator sim;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 10; ++i) hs.push_back(sim.at(10 + i, [] {}));
  EXPECT_EQ(sim.pending(), 10u);
  hs[1].cancel();
  hs[4].cancel();
  hs[9].cancel();
  EXPECT_EQ(sim.pending(), 7u);  // cancelled slots are reclaimed eagerly
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, StaleHandleDoesNotCancelSlotReuser) {
  Simulator sim;
  bool b_fired = false;
  EventHandle a = sim.at(10, [] {});
  a.cancel();  // frees the slot; `b` will reuse it with a bumped generation
  EventHandle b = sim.at(20, [&b_fired] { b_fired = true; });
  a.cancel();  // stale: must not touch b
  a.cancel();  // double-cancel on a stale handle: still a no-op
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  sim.run();
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(b.active());
}

TEST(KernelEquivalence, PeriodicCancelInsideOwnCallback) {
  Simulator sim;
  int fires = 0;
  EventHandle h;
  h = sim.every(100, [&] {
    if (++fires == 3) h.cancel();
  });
  sim.run_until(10'000);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(h.active());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, OneShotCancelInsideOwnCallbackIsBenign) {
  Simulator sim;
  EventHandle h;
  int fires = 0;
  h = sim.at(5, [&] {
    ++fires;
    h.cancel();  // already firing; cancel of self must not corrupt the slab
  });
  bool later = false;
  sim.at(6, [&later] { later = true; });
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(later);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, CancelledSlotsAreReusedNotLeaked) {
  Simulator sim;
  // Schedule/cancel far more events than one slab chunk holds; eager
  // reclaim means the same slots recycle instead of growing the slab.
  for (int round = 0; round < 100; ++round) {
    std::vector<EventHandle> hs;
    for (int i = 0; i < 64; ++i) hs.push_back(sim.at(1'000'000, [] {}));
    for (auto& h : hs) h.cancel();
  }
  EXPECT_EQ(sim.pending(), 0u);
  int fired = 0;
  sim.at(1, [&fired] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace adcp::sim

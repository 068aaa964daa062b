// Discrete-event simulation kernel.
//
// The kernel is deliberately small: a time-ordered queue of callbacks and a
// run loop. Everything else in the repository (pipelines, traffic managers,
// links, hosts) is built as callbacks that reschedule themselves. Events at
// equal timestamps fire in scheduling order (FIFO), which keeps runs fully
// deterministic.
//
// Internals are built for throughput, since every experiment in the repo is
// bounded by this loop:
//  - Event records live in a slab of fixed slots (chunked so addresses stay
//    stable while a callback runs); cancelled and fired slots go on a free
//    list, so steady-state scheduling performs no heap allocation.
//  - Ordering is a 4-ary min-heap over (time, seq) holding 24-byte entries
//    that reference slab slots — sift operations move small PODs, never
//    callables.
//  - Zero-delay events (scheduled at now()) bypass the heap: they go to a
//    FIFO ring that is sorted by (time, seq) by construction, and the run
//    loop pops whichever lane head is earlier — the same order the heap
//    alone would produce (see front_lane()).
//  - Callbacks are InlineFunction (see inline_function.hpp): captures up to
//    the inline budget are stored in the slot itself.
//  - Cancellation is a generation check: an EventHandle names (slot, gen);
//    cancel() frees the slot immediately and any stale queue entry is
//    discarded lazily when it surfaces. No shared_ptr, no atomics.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace adcp::sim {

class Simulator;

/// Cancellation handle for a scheduled event or periodic task. Destroying
/// the handle does NOT cancel the event; call `cancel()` explicitly.
/// A handle must not outlive its Simulator (it holds a plain pointer).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event (and, for periodic tasks, all future firings) from
  /// running. Safe to call multiple times, on a default-constructed handle,
  /// or after the event has already fired (no-op).
  void cancel();

  /// True while the event is still scheduled (one-shots become inactive
  /// after firing; periodic tasks stay active until cancelled).
  [[nodiscard]] bool active() const;

  /// Slab identity, exposed for generation-check tests and debugging: the
  /// slot index may be recycled by later schedules, the generation never is.
  [[nodiscard]] std::uint32_t slot() const { return slot_; }
  [[nodiscard]] std::uint32_t generation() const { return gen_; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A deterministic discrete-event simulator.
///
/// Typical use:
///   Simulator sim;
///   sim.after(10 * kNanosecond, [&] { ... });
///   sim.run();
class Simulator {
 public:
  /// Scheduling callback. The inline budget keeps the hot data-path
  /// captures allocation-free: [this, packet] and friends take 96 bytes
  /// (an 88-byte Packet plus a pointer), leaving 24 to spare. Larger
  /// captures (e.g. a full PHV) transparently spill to the heap.
  using Callback = InlineFunction<void(), 120>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must be >= now()). Templated so
  /// the callable's capture is constructed directly in the slab slot — no
  /// intermediate Callback temporary, no buffer copy.
  template <typename F>
  EventHandle at(Time at, F&& fn) {
    assert(at >= now_ && "cannot schedule in the past");
    const std::uint32_t i = alloc_slot();
    Slot& s = slot(i);
    s.fn = std::forward<F>(fn);
    s.period = 0;
    enqueue({at, next_seq_++, i, s.gen});
    ++live_;
    return EventHandle{this, i, s.gen};
  }

  /// Schedules `fn` after `delay` picoseconds.
  template <typename F>
  EventHandle after(Time delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` every `period` picoseconds, first firing at
  /// `now() + phase` (default: one full period from now). Returns a handle
  /// that cancels all future firings. The task occupies one slab slot for
  /// its whole life and is rescheduled in place — no per-firing allocation.
  ///
  /// FIFO guarantee for `phase == 0`: the first firing is scheduled at
  /// `now()` but, like every equal-timestamp tie, it fires in scheduling
  /// order — strictly after all events that were already scheduled at
  /// `now()` when every() was called (including events the currently
  /// running callback scheduled before it). Subsequent firings are
  /// rescheduled from inside step() with a fresh sequence number, so an
  /// `every(p)` task fires after one-shots scheduled at the same future
  /// timestamp by earlier callbacks, exactly as if each firing had been
  /// re-issued by hand when the previous one ran.
  template <typename F>
  EventHandle every(Time period, F&& fn) {
    return every(period, period, std::forward<F>(fn));
  }
  template <typename F>
  EventHandle every(Time period, Time phase, F&& fn) {
    assert(period > 0 && "periodic task needs a positive period");
    const std::uint32_t i = alloc_slot();
    Slot& s = slot(i);
    s.fn = std::forward<F>(fn);
    s.period = period;
    enqueue({now_ + phase, next_seq_++, i, s.gen});
    ++live_;
    return EventHandle{this, i, s.gen};
  }

  /// Runs until the event queue drains or `stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs until simulation time would exceed `deadline` (events exactly at
  /// the deadline still run). Returns the number of events executed.
  /// Afterwards now() == deadline even if the queue drained early.
  std::uint64_t run_until(Time deadline);

  /// Returned by next_event_time() when no live event is scheduled.
  static constexpr Time kNoEventTime = ~Time{0};

  /// Timestamp of the earliest live event, or kNoEventTime if none.
  /// Discards stale (cancelled) queue entries as a side effect.
  [[nodiscard]] Time next_event_time();

  /// Runs every event with timestamp strictly below `end` (a half-open
  /// epoch window), then returns the number executed. Unlike run_until(),
  /// now() is left at the last executed event — it is never bumped to the
  /// window boundary — so after the final window now() is the time of the
  /// last event that actually ran, exactly as a plain run() would leave it.
  /// This is the per-shard primitive of the conservative parallel driver
  /// (see parallel.hpp): with window length <= the minimum cross-shard
  /// latency, no event scheduled during the window can land inside it.
  std::uint64_t run_window(Time end);

  /// Executes the single earliest live event. Returns false if none remain.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of live events waiting: scheduled one-shots plus active
  /// periodic tasks. Cancelled events are reclaimed eagerly and never
  /// counted here.
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // 256 slots per chunk: chunk allocation amortizes, and slot addresses
  // stay stable while callbacks run (a callback may schedule new events,
  // which can append chunks but never moves existing ones).
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct Slot {
    Callback fn;
    Time period = 0;  ///< 0 = one-shot, >0 = periodic
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Which queue holds the earliest live entry.
  enum class Lane : std::uint8_t { kNone, kHeap, kFifo };

  Slot& slot(std::uint32_t i) { return chunks_[i >> kChunkShift][i & (kChunkSize - 1)]; }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] bool stale(const Entry& e) const { return slot(e.slot).gen != e.gen; }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t i = free_head_;
      free_head_ = slot(i).next_free;
      return i;
    }
    if (used_slots_ < chunks_.size() * kChunkSize) return used_slots_++;
    return alloc_slot_grow();
  }
  std::uint32_t alloc_slot_grow();  ///< appends a chunk, returns a fresh slot
  void free_slot(std::uint32_t i);

  // EventHandle backends.
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool event_active(std::uint32_t slot, std::uint32_t gen) const;

  /// Routes a new entry. Zero-delay entries join the FIFO: now() never
  /// decreases and sequence numbers only grow, so appending keeps the ring
  /// sorted by (time, seq) and its head is its minimum.
  void enqueue(Entry e) {
    if (e.at == now_) {
      fifo_push(e);
    } else {
      heap_push(e);
    }
  }
  void fifo_push(Entry e) {
    if (fifo_size_ == fifo_.size()) fifo_grow();
    fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = e;
    ++fifo_size_;
  }
  void fifo_grow();
  void fifo_pop_front() {
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    --fifo_size_;
  }
  [[nodiscard]] const Entry& fifo_front() const { return fifo_[fifo_head_]; }

  void heap_push(Entry e);
  void heap_pop_front();
  void heap_sift_down(std::size_t i);
  /// Drops stale entries from both lane heads and names the lane whose
  /// head is the earliest live entry by (time, seq).
  Lane front_lane();
  [[nodiscard]] const Entry& front(Lane lane) const {
    return lane == Lane::kFifo ? fifo_front() : heap_.front();
  }
  /// Removes the head of `lane` and runs its event.
  void fire(Lane lane);
  /// Rebuilds both lanes without stale entries once they dominate.
  void maybe_compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;

  std::vector<Entry> heap_;
  std::vector<Entry> fifo_;  ///< zero-delay ring; size is a power of two
  std::size_t fifo_head_ = 0;
  std::size_t fifo_size_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t used_slots_ = 0;     ///< high-water mark of allocated slot ids
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;             ///< scheduled one-shots + active periodics
  std::size_t stale_ = 0;            ///< queued entries pointing at dead slots
  std::uint32_t executing_ = kNoSlot;  ///< slot whose callback is running
  std::uint32_t executing_gen_ = 0;
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_event(slot_, gen_);
}

inline bool EventHandle::active() const {
  return sim_ != nullptr && sim_->event_active(slot_, gen_);
}

}  // namespace adcp::sim

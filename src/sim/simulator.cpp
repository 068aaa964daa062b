#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace adcp::sim {

std::uint32_t Simulator::alloc_slot_grow() {
  // Default-init, not make_unique: value-initialization would zero every
  // slot's 120-byte callback buffer (~32 KiB per chunk) before the field
  // initializers run, which dominates short-lived simulators.
  chunks_.emplace_back(new Slot[kChunkSize]);
  if (heap_.capacity() < used_slots_ + kChunkSize) {
    heap_.reserve(2 * (used_slots_ + kChunkSize));
  }
  return used_slots_++;
}

void Simulator::free_slot(std::uint32_t i) {
  Slot& s = slot(i);
  s.next_free = free_head_;
  free_head_ = i;
}

void Simulator::cancel_event(std::uint32_t slot_i, std::uint32_t gen) {
  Slot& s = slot(slot_i);
  if (s.gen != gen) return;  // already fired, cancelled, or slot reused
  ++s.gen;
  --live_;
  if (slot_i == executing_ && gen == executing_gen_) {
    // The callback is cancelling itself; its callable is still on the
    // stack. fire() finishes the reclaim once it returns. Its queue entry
    // was already popped, so nothing goes stale.
    return;
  }
  s.fn = nullptr;  // release captured resources promptly
  free_slot(slot_i);
  ++stale_;  // its queue entry now points at a dead generation
  maybe_compact();
}

bool Simulator::event_active(std::uint32_t slot_i, std::uint32_t gen) const {
  return slot(slot_i).gen == gen;
}

void Simulator::fifo_grow() {
  // Unrolls the ring into a buffer twice the size; the head lands at 0.
  std::vector<Entry> grown(std::max<std::size_t>(64, 2 * fifo_.size()));
  for (std::size_t k = 0; k < fifo_size_; ++k) {
    grown[k] = fifo_[(fifo_head_ + k) & (fifo_.size() - 1)];
  }
  fifo_ = std::move(grown);
  fifo_head_ = 0;
}

void Simulator::heap_push(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t k = first + 1; k < end; ++k) {
      if (before(heap_[k], heap_[best])) best = k;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_front() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
}

void Simulator::maybe_compact() {
  const std::size_t queued = heap_.size() + fifo_size_;
  if (queued < 64 || stale_ * 2 <= queued) return;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) >> 2; ; --i) {
      heap_sift_down(i);
      if (i == 0) break;
    }
  }
  // Filter the ring in order; live entries slide toward the head.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < fifo_size_; ++k) {
    const Entry e = fifo_[(fifo_head_ + k) & (fifo_.size() - 1)];
    if (!stale(e)) fifo_[(fifo_head_ + kept++) & (fifo_.size() - 1)] = e;
  }
  fifo_size_ = kept;
  stale_ = 0;
}

Simulator::Lane Simulator::front_lane() {
  while (fifo_size_ > 0 && stale(fifo_front())) {
    fifo_pop_front();
    --stale_;
  }
  while (!heap_.empty() && stale(heap_.front())) {
    heap_pop_front();
    --stale_;
  }
  // Both lanes are sorted by (time, seq), so the earlier of the two heads
  // is the global minimum: the merged order is the single heap's order.
  if (fifo_size_ == 0) return heap_.empty() ? Lane::kNone : Lane::kHeap;
  if (heap_.empty() || before(fifo_front(), heap_.front())) return Lane::kFifo;
  return Lane::kHeap;
}

void Simulator::fire(Lane lane) {
  const Entry e = front(lane);
  if (lane == Lane::kFifo) {
    fifo_pop_front();
  } else {
    heap_pop_front();
  }
  Slot& s = slot(e.slot);
  assert(e.at >= now_);
  now_ = e.at;
  executing_ = e.slot;
  executing_gen_ = e.gen;
  // Runs in place in the slab; the reference stays valid because the
  // callback may schedule (chunks only grow; slots never move) or
  // cancel, including cancelling itself.
  s.fn();
  executing_ = kNoSlot;
  if (s.gen != e.gen) {
    // Cancelled from inside a callback; cancel_event() deferred the
    // reclaim because the callable was executing.
    s.fn = nullptr;
    free_slot(e.slot);
  } else if (s.period > 0) {
    // Periodic: reschedule in place — same slot, same generation, fresh
    // sequence number so equal-timestamp FIFO order matches a fresh
    // schedule issued after the callback ran.
    heap_push({now_ + s.period, next_seq_++, e.slot, e.gen});
  } else {
    s.fn = nullptr;
    ++s.gen;
    --live_;
    free_slot(e.slot);
  }
}

bool Simulator::step() {
  const Lane lane = front_lane();
  if (lane == Lane::kNone) return false;
  fire(lane);
  return true;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && step()) ++executed;
  return executed;
}

std::uint64_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_) {
    const Lane lane = front_lane();
    if (lane == Lane::kNone || front(lane).at > deadline) break;
    fire(lane);
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

Time Simulator::next_event_time() {
  const Lane lane = front_lane();
  return lane == Lane::kNone ? kNoEventTime : front(lane).at;
}

std::uint64_t Simulator::run_window(Time end) {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_) {
    const Lane lane = front_lane();
    if (lane == Lane::kNone || front(lane).at >= end) break;
    fire(lane);
    ++executed;
  }
  return executed;
}

}  // namespace adcp::sim

// Pooled continuation state for scheduler callbacks.
//
// A callback's capture must fit the kernel's inline budget
// (Simulator::Callback) or it spills to the heap on every schedule. Hot
// paths whose state is larger — a PHV, a wire view plus a verdict — park it
// in a slot from a SlotPool and capture only [this, slot]. Slots have
// stable addresses, the free list is LIFO (the warmest slot is reused
// first), and once the pool has reached its high-water mark acquire() and
// release() never touch the heap. A released slot keeps its contents, so
// containers inside it (a PHV's arrays, a parse path) keep their capacity;
// whoever acquires a slot sets every field it later reads.
#pragma once

#include <memory>
#include <vector>

namespace adcp::sim {

template <typename T>
class SlotPool {
 public:
  /// A free slot (a fresh one past the high-water mark).
  T* acquire() {
    if (free_.empty()) {
      slots_.push_back(std::make_unique<T>());
      return slots_.back().get();
    }
    T* slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Returns `slot` (from this pool's acquire()) to the free list.
  void release(T* slot) { free_.push_back(slot); }

 private:
  std::vector<std::unique_ptr<T>> slots_;  ///< owns every slot
  std::vector<T*> free_;
};

}  // namespace adcp::sim

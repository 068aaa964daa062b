// Packet recycling pool.
//
// Every packet that crosses a simulated switch used to cost at least one
// buffer allocation (deparse builds fresh wire bytes) plus the frees of the
// packet it replaced. The pool turns that churn into a freelist: release()
// parks a dead packet, acquire() hands it back with zero-length data and
// default metadata but with the buffer's capacity intact, so steady-state
// forwarding performs no heap allocation per packet.
//
// Ownership rules (also summarized in DESIGN.md):
//  - acquire() transfers ownership to the caller; a pooled packet is an
//    ordinary value — it may be moved anywhere, including into queues,
//    events, or a *different* pool.
//  - release() is optional. A packet that is simply destroyed frees its
//    memory; the simulation stays correct, the pool just refills lazily.
//  - Pools are not thread-safe; use one pool per simulation (simulations
//    are single-threaded by design).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "packet/packet.hpp"
#include "sim/metrics.hpp"

namespace adcp::packet {

class Pool {
 public:
  struct Stats {
    std::uint64_t fresh = 0;     ///< acquires served by a new allocation
    std::uint64_t recycled = 0;  ///< acquires served from the freelist
    std::uint64_t released = 0;  ///< packets returned via release()
  };

  /// `max_idle` caps how many dead packets the pool retains; surplus
  /// releases simply free their memory. `scope` names this pool in a
  /// shared MetricRegistry; detached (the default) falls back to a private
  /// registry under "pool".
  explicit Pool(std::size_t max_idle = 4096, sim::Scope scope = {})
      : max_idle_(max_idle),
        scope_(sim::resolve_scope(scope, own_metrics_, "pool")),
        fresh_(scope_.counter("fresh")),
        recycled_(scope_.counter("recycled")),
        released_(scope_.counter("released")) {}

  /// An empty packet (size 0, default metadata), recycled when possible.
  Packet acquire() {
    if (free_.empty()) {
      fresh_.add();
      return Packet{};
    }
    Packet pkt = std::move(free_.back());
    free_.pop_back();
    pkt.data.clear();
    pkt.meta = Metadata{};
    recycled_.add();
    return pkt;
  }

  /// Parks `pkt` for reuse (or frees it if the pool is full).
  void release(Packet pkt) {
    released_.add();
    if (free_.size() < max_idle_) free_.push_back(std::move(pkt));
  }

  [[nodiscard]] std::size_t idle() const { return free_.size(); }
  [[nodiscard]] Stats stats() const {
    return Stats{fresh_.value(), recycled_.value(), released_.value()};
  }

 private:
  std::vector<Packet> free_;
  std::size_t max_idle_;
  // Declared before the counter references they back.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  sim::Counter& fresh_;
  sim::Counter& recycled_;
  sim::Counter& released_;
};

}  // namespace adcp::packet

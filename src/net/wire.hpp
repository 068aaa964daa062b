// One direction of a link, as its sending side sees it.
#pragma once

#include <utility>

#include "net/link.hpp"
#include "packet/packet.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"

namespace adcp::net {

/// The one place a link loses or delivers a packet: a host's uplink, its
/// downlink and each trunk direction are each one Wire. It runs on the
/// sending side's simulator and reaches the far end one scheduled event
/// later: through `mailbox` when the two ends sit on different PDES shards,
/// as a local event otherwise. A lossy Wire touches its loss stream, drop
/// counter, span recorder and pool on the sending side, so they must live
/// there.
struct Wire {
  Link link{};
  sim::Simulator* sim = nullptr;      ///< the sending side's clock
  sim::Mailbox* mailbox = nullptr;    ///< null when both ends share a shard
  sim::Rng* rng = nullptr;            ///< the loss stream (drawn when loss_rate > 0)
  sim::Counter* drops = nullptr;      ///< counts losses ("drops.link")
  sim::SpanRecorder spans{};          ///< records losses
  packet::Pool* drop_pool = nullptr;  ///< recycles lost packets (null: free them)

  /// Draws the loss lottery (only when the link is lossy). On a loss it
  /// counts the drop, records it as a kDrop/kLink instant at `at` and
  /// recycles `pkt`, then returns true.
  bool lost(packet::Packet& pkt, sim::Time at) {
    if (rng == nullptr || link.loss_rate <= 0.0 || !rng->chance(link.loss_rate)) return false;
    drops->add();
    spans.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, at,
                  static_cast<std::uint64_t>(sim::DropReason::kLink));
    if (drop_pool != nullptr) drop_pool->release(std::move(pkt));
    return true;
  }

  /// Runs `fn` at `at` on the receiving side, building its capture in place
  /// (a mailbox envelope or an event slot).
  template <typename F>
  void deliver(sim::Time at, F&& fn) {
    if (mailbox != nullptr) {
      mailbox->push(at, std::forward<F>(fn));
    } else {
      sim->at(at, std::forward<F>(fn));
    }
  }
};

}  // namespace adcp::net

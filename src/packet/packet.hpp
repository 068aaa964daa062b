// Packet: wire bytes plus switch-internal metadata.
#pragma once

#include <cstdint>
#include <type_traits>

#include "packet/buffer.hpp"
#include "sim/time.hpp"

namespace adcp::packet {

/// Port index within a switch.
using PortId = std::uint32_t;
inline constexpr PortId kInvalidPort = ~PortId{0};

/// Metadata carried alongside the wire bytes while a packet is inside a
/// simulated device. None of this is serialized.
struct Metadata {
  PortId ingress_port = kInvalidPort;
  PortId egress_port = kInvalidPort;
  sim::Time arrival = 0;         ///< time the first bit hit the RX port
  std::uint32_t recirculations = 0;  ///< how many recirculation passes so far
  /// Ingress program requested a recirculation pass; honored after the
  /// egress pipeline (the recirculation port hangs off the egress side).
  bool recirc_request = false;
  /// TM queue depth (packets already queued on the chosen output) observed
  /// when this packet was enqueued, saturating at 0xFFFF. Stamped by the
  /// switch models only while a telemetry tap is armed (see telem/tap.hpp);
  /// read back at TX to fill the INT hop record. Not serialized, never
  /// affects forwarding. 16-bit so it fits the alignment hole after
  /// recirc_request: Metadata stays 64 bytes and Packet 88 (x86-64), so a
  /// [this, pkt] capture (96 bytes) stays inside the simulator's 120-byte
  /// inline callback budget and no steady-state event heap-allocates.
  std::uint16_t telem_depth = 0;
  std::uint64_t flow_id = 0;
  std::uint64_t coflow_id = 0;
  /// Span-tracing id (see sim/span.hpp); 0 = unsampled. Assigned once at
  /// the sending host by the deterministic head sampler and carried across
  /// every hop (multicast copies share it).
  std::uint64_t trace_id = 0;
  /// Scratch timestamp for open spans that straddle an ownership transfer
  /// (TM residency: stamped at enqueue, read at dequeue; host RX: stamped
  /// at handoff, read at delivery). Only meaningful while trace_id != 0.
  sim::Time trace_mark = 0;
  /// Seeded ECMP hash of the 5-tuple, computed lazily by the first
  /// multi-port FIB lookup and carried across hops so later switches skip
  /// the recompute (valid fabric-wide because every FIB shares one
  /// ecmp_seed; 0 = not yet computed). Cleared whenever the 5-tuple
  /// changes (e.g. the churn program's src/dst swap).
  std::uint64_t flow_hash = 0;

  /// Saturating store for telem_depth (a pathological config could queue
  /// more than 0xFFFF packets; the INT report field saturates earlier).
  void set_telem_depth(std::size_t packets) {
    telem_depth = packets > 0xFFFF ? std::uint16_t{0xFFFF}
                                   : static_cast<std::uint16_t>(packets);
  }
};

// Every packet move, copy and event capture copies the metadata; keep it a
// flat, memcpy-able record.
static_assert(std::is_trivially_copyable_v<Metadata>);

/// A simulated packet. Value-semantic; moves are cheap.
struct Packet {
  Buffer data;
  Metadata meta;

  [[nodiscard]] std::size_t size() const { return data.size(); }
};

}  // namespace adcp::packet

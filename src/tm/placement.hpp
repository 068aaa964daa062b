// Application-defined placement for the first ADCP traffic manager (§3.1).
//
// The global partitioned area is *partitioned*: the application must say
// how TM1 spreads coflow data across the central pipelines. A placement
// policy maps a packet to a central-pipeline index; the named constructors
// below cover the policies the paper mentions (hash, range) plus a
// round-robin spreader.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "packet/headers.hpp"
#include "packet/packet.hpp"
#include "sim/random.hpp"

namespace adcp::tm {

/// Maps a packet to one of `n` central pipelines.
using PlacementFn = std::function<std::uint32_t(const packet::Packet&)>;

namespace placement {

/// Hash of the coflow id: all packets of a coflow meet in one pipeline.
inline PlacementFn by_coflow_hash(std::uint32_t n) {
  return [n](const packet::Packet& pkt) {
    return static_cast<std::uint32_t>(sim::mix64(pkt.meta.coflow_id) % n);
  };
}

/// Hash of the flow id: flows spread independently.
inline PlacementFn by_flow_hash(std::uint32_t n) {
  return [n](const packet::Packet& pkt) {
    return static_cast<std::uint32_t>(sim::mix64(pkt.meta.flow_id) % n);
  };
}

/// Hash of the packet's first INC element key (paper's parameter-server
/// example: place a weight by its id hash). Non-INC packets go to pipe 0.
inline PlacementFn by_key_hash(std::uint32_t n) {
  return [n](const packet::Packet& pkt) -> std::uint32_t {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc) || inc.elements.empty()) return 0;
    return static_cast<std::uint32_t>(sim::mix64(inc.elements.front().key) % n);
  };
}

/// Range partitioning of the first INC element key over [0, max_key).
inline PlacementFn by_key_range(std::uint32_t n, std::uint64_t max_key) {
  return [n, max_key](const packet::Packet& pkt) -> std::uint32_t {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc) || inc.elements.empty()) return 0;
    const std::uint64_t key = std::min<std::uint64_t>(inc.elements.front().key, max_key - 1);
    return static_cast<std::uint32_t>(key * n / max_key);
  };
}

/// Stateful round-robin spreader (load balancing with no affinity).
inline PlacementFn round_robin(std::uint32_t n) {
  auto next = std::make_shared<std::uint32_t>(0);
  return [n, next](const packet::Packet&) {
    const std::uint32_t v = *next;
    *next = (v + 1) % n;
    return v;
  };
}

}  // namespace placement

}  // namespace adcp::tm

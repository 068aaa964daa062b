// Address plan and forwarding state for multi-switch topologies.
//
// Every host in a topology gets an IPv4 address from the 10.0.0.0/8 block:
//
//   10 . pod . tor . host          (fat-tree: one byte per tier)
//   10 .  0  . leaf . host         (leaf–spine: a single pod)
//
// Switches forward with a two-level table: exact-match host routes for the
// directly attached rack, then longest-prefix routes whose next hop is an
// ECMP group. Path choice inside a group is a seeded hash of the flow
// 5-tuple fields (src/dst IP, src/dst UDP port) — per-flow stable, so a
// flow never changes path and the baseline fabric introduces no reordering.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "packet/packet.hpp"
#include "sim/random.hpp"

namespace adcp::topo {

/// All topology addresses live under this /8.
inline constexpr std::uint32_t kAddressBase = 0x0a00'0000;

/// 10.pod.tor.host.
constexpr std::uint32_t make_ip(std::uint32_t pod, std::uint32_t tor, std::uint32_t host) {
  return kAddressBase | ((pod & 0xff) << 16) | ((tor & 0xff) << 8) | (host & 0xff);
}

/// Seeded per-flow hash over the fields that identify a flow. Chains the
/// splitmix64 finalizer so every input bit avalanches into the selection.
constexpr std::uint64_t ecmp_hash(std::uint64_t seed, std::uint32_t ip_src,
                                  std::uint32_t ip_dst, std::uint16_t udp_src,
                                  std::uint16_t udp_dst) {
  std::uint64_t h = sim::mix64(seed ^ ip_src);
  h = sim::mix64(h ^ ip_dst);
  return sim::mix64(h ^ (static_cast<std::uint64_t>(udp_src) << 16 | udp_dst));
}

/// Next-hop set for one route; lookup() picks one port by flow hash.
struct EcmpGroup {
  std::vector<packet::PortId> ports;
};

/// Exact-match + longest-prefix forwarding with ECMP next-hop groups.
/// Built once at topology-construction time; lookup() is const and
/// allocation-free (warm-path requirement for the routing programs).
class ForwardingTable {
 public:
  /// Returned when no route covers the destination.
  static constexpr packet::PortId kNoRoute = packet::kInvalidPort;

  explicit ForwardingTable(std::uint64_t seed) : seed_(seed) {}

  /// Host route: one /32 destination, one port.
  void add_exact(std::uint32_t ip, packet::PortId port) {
    exact_[ip] = port;
    ++version_;
  }

  /// Prefix route (`prefix_len` leading bits of `prefix`); ties between
  /// overlapping prefixes go to the longest one.
  void add_prefix(std::uint32_t prefix, std::uint32_t prefix_len, EcmpGroup group);

  /// Resolves the egress port for one packet. Exact routes win over any
  /// prefix; among prefixes the longest match wins; a multi-port group is
  /// resolved by ecmp_hash of the flow fields.
  [[nodiscard]] packet::PortId lookup(std::uint32_t ip_dst, std::uint32_t ip_src,
                                      std::uint16_t udp_src, std::uint16_t udp_dst) const;

  /// lookup() with a carried flow hash: `flow_hash` of 0 means "not yet
  /// computed" — the first multi-port resolution computes the seeded hash
  /// and writes it back so later hops (and later hops' tables, which share
  /// the fabric-wide seed) skip the recompute. Exact and single-port
  /// routes never touch the hash.
  [[nodiscard]] packet::PortId lookup_cached(std::uint32_t ip_dst,
                                             std::uint32_t ip_src,
                                             std::uint16_t udp_src,
                                             std::uint16_t udp_dst,
                                             std::uint64_t& flow_hash) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Bumped by every route mutation; the datapath fast path invalidates
  /// cached verdicts when this moves.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// Stable address of the version counter, for pull-based invalidation.
  [[nodiscard]] const std::uint64_t* version_ptr() const { return &version_; }

 private:
  struct PrefixRoute {
    std::uint32_t prefix = 0;
    std::uint32_t mask = 0;
    std::uint32_t len = 0;
    EcmpGroup group;
  };

  std::uint64_t seed_;
  std::uint64_t version_ = 0;
  std::unordered_map<std::uint32_t, packet::PortId> exact_;
  std::vector<PrefixRoute> prefixes_;  // sorted by descending prefix length
};

}  // namespace adcp::topo

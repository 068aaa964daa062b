// Concrete header layouts used by the examples, tests, and benches.
//
// The INC ("in-network computing") header is the application header the
// paper's coflow applications need: it names the coflow and flow a packet
// belongs to and carries an *array* of key/value elements — the property
// that motivates §3.2 (array support). The layout after UDP is:
//
//   offset  width  field
//   0       1      opcode
//   1       1      element count k
//   2       2      coflow id
//   4       4      flow id
//   8       4      sequence number
//   12      4      worker id
//   16      k*8    k elements of (u32 key, u32 value)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "packet/packet.hpp"
#include "packet/phv.hpp"

namespace adcp::packet {

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kIpProtoUdp = 17;
/// UDP destination port that selects the INC header in the parse graph.
inline constexpr std::uint16_t kIncUdpPort = 0xADC0;

/// TTL make_inc_packet writes; multi-switch receivers recover the hop
/// count as kIncInitialTtl - ttl (routing programs decrement per switch).
inline constexpr std::uint8_t kIncInitialTtl = 64;

inline constexpr std::size_t kEthernetBytes = 14;
inline constexpr std::size_t kIpv4Bytes = 20;
inline constexpr std::size_t kUdpBytes = 8;
inline constexpr std::size_t kIncFixedBytes = 16;
inline constexpr std::size_t kIncElementBytes = 8;

/// Operations understood by the in-network programs in this repository.
enum class IncOpcode : std::uint8_t {
  kRead = 1,        ///< key/value read (cache lookup)
  kWrite = 2,       ///< key/value write
  kAggUpdate = 3,   ///< contribute elements to an aggregation
  kAggResult = 4,   ///< switch-produced aggregation result
  kShuffle = 5,     ///< repartition elements by key (DB reshuffle)
  kBspStep = 6,     ///< graph BSP superstep message
  kGroupXfer = 7,   ///< switch-initiated group data transfer
  kPlain = 8,       ///< ordinary forwarded traffic
  kLockAcquire = 9,  ///< acquire the lock named by the first element key
  kLockRelease = 10, ///< release it
  kLockReply = 11,   ///< switch reply: first element value 1=granted/released
  kData = 12,        ///< bulk transfer data (congestion-controlled flows)
  kAck = 13,         ///< transfer ack; element {seq, ce_echo}
  kPropose = 14,     ///< client request to be sequenced (consensus class)
  kOrdered = 15,     ///< sequenced request, kIncSeq = global order number
  /// In-band control-plane update batch (see packet/control.hpp): flow_id
  /// carries the epoch, worker_id the batch flags, elements the entries.
  kCtrlUpdate = 16,
  kChurnQuery = 17,  ///< cacheable read; kIncWorkerId carries the key
  kChurnHit = 18,    ///< switch reply: the key was cached (versioned store)
  kChurnMiss = 19,   ///< backing-store reply: the key was not cached
  /// In-band telemetry report forwarded by a sink host to the collector
  /// (see telem/int_format.hpp): element 0 names the observed flow, one
  /// element per INT hop record follows.
  kTelemReport = 20,
  /// Switch-originated drop/ECN postcard addressed to the collector; two
  /// elements carry (switch, event kind, reason) and (ports, hop, depth).
  kTelemPostcard = 21,
};

/// One key/value data element.
struct IncElement {
  std::uint32_t key = 0;
  std::uint32_t value = 0;
  bool operator==(const IncElement&) const = default;
};

/// Parsed view of the INC header.
struct IncHeader {
  IncOpcode opcode = IncOpcode::kPlain;
  std::uint16_t coflow_id = 0;
  std::uint32_t flow_id = 0;
  std::uint32_t seq = 0;
  std::uint32_t worker_id = 0;
  std::vector<IncElement> elements;
  bool operator==(const IncHeader&) const = default;
};

/// Everything needed to synthesize a full Ethernet/IPv4/UDP/INC packet.
struct IncPacketSpec {
  std::uint64_t eth_dst = 0x0000'0a0b'0c0d'0001ULL;
  std::uint64_t eth_src = 0x0000'0a0b'0c0d'0002ULL;
  std::uint32_t ip_src = 0x0a00'0001;
  std::uint32_t ip_dst = 0x0a00'0002;
  std::uint16_t udp_src = 40'000;
  std::uint16_t udp_dst = kIncUdpPort;
  IncHeader inc;
  /// If nonzero, the packet is padded with zero payload bytes up to this
  /// total wire size (models minimum packet sizes from Tables 2/3).
  std::size_t pad_to = 0;

  bool operator==(const IncPacketSpec&) const = default;
};

/// Total wire bytes for an INC packet carrying `elems` elements (no pad).
constexpr std::size_t inc_packet_bytes(std::size_t elems) {
  return kEthernetBytes + kIpv4Bytes + kUdpBytes + kIncFixedBytes +
         elems * kIncElementBytes;
}

/// Serializes an INC packet per the layout above.
Packet make_inc_packet(const IncPacketSpec& spec);

/// Same, but serializes into `pkt` (contents discarded, buffer capacity and
/// non-flow metadata kept) — pairs with packet::Pool so senders can emit a
/// steady stream without per-packet allocation.
void make_inc_packet_into(const IncPacketSpec& spec, Packet& pkt);

/// Decodes the INC header from a full packet; returns false when the packet
/// is not INC (wrong ethertype/proto/port) or is truncated.
bool decode_inc(const Packet& pkt, IncHeader& out);

/// decode_inc without the elements: fills every other field of `out`,
/// leaves out.elements untouched and returns the element count. Rejects
/// exactly the packets decode_inc rejects (nullopt) and never allocates.
std::optional<std::size_t> decode_inc_fixed(const Packet& pkt, IncHeader& out);

}  // namespace adcp::packet

#include "packet/headers.hpp"

#include <algorithm>

namespace adcp::packet {

namespace {

constexpr std::size_t kIpOffset = kEthernetBytes;
constexpr std::size_t kUdpOffset = kIpOffset + kIpv4Bytes;
constexpr std::size_t kIncOffset = kUdpOffset + kUdpBytes;

}  // namespace

Packet make_inc_packet(const IncPacketSpec& spec) {
  Packet pkt;
  make_inc_packet_into(spec, pkt);
  return pkt;
}

void make_inc_packet_into(const IncPacketSpec& spec, Packet& pkt) {
  const std::size_t elems = spec.inc.elements.size();
  const std::size_t inc_bytes = kIncFixedBytes + elems * kIncElementBytes;
  const std::size_t wire = std::max(inc_packet_bytes(elems), spec.pad_to);
  // Size once, then write in place (as Deparser::deparse_into does):
  // appending field by field resizes the vector per field. A buffer that
  // must grow gets a capacity from the doubling series 6, 12, 24, ...
  // bytes rather than the exact size, so recycled buffers fall into a few
  // size classes and pools that hand them between packet sizes do not
  // fragment the heap (exact sizes grew a long churn run's peak RSS by
  // ~5%). The resize zero-fills the padding.
  Buffer& b = pkt.data;
  b.clear();
  if (b.capacity() < wire) {
    std::size_t cap = std::max<std::size_t>(b.capacity(), 6);
    while (cap < wire) cap *= 2;
    b.reserve(cap);
  }
  b.resize(wire);
  std::size_t at = 0;
  const auto put = [&b, &at](std::size_t width, std::uint64_t value) {
    b.write(at, width, value);
    at += width;
  };

  // Ethernet
  put(6, spec.eth_dst);
  put(6, spec.eth_src);
  put(2, kEtherTypeIpv4);

  // IPv4 (simplified: version/ihl, dscp, total length, id, flags, ttl,
  // proto, checksum, src, dst)
  put(1, 0x45);
  put(1, 0);
  put(2, kIpv4Bytes + kUdpBytes + inc_bytes);
  put(2, 0);       // identification
  put(2, 0x4000);  // flags: DF
  put(1, kIncInitialTtl);  // ttl
  put(1, kIpProtoUdp);
  put(2, 0);  // checksum (not modeled)
  put(4, spec.ip_src);
  put(4, spec.ip_dst);

  // UDP
  put(2, spec.udp_src);
  put(2, spec.udp_dst);
  put(2, kUdpBytes + inc_bytes);
  put(2, 0);  // checksum (not modeled)

  // INC
  put(1, static_cast<std::uint64_t>(spec.inc.opcode));
  put(1, elems);
  put(2, spec.inc.coflow_id);
  put(4, spec.inc.flow_id);
  put(4, spec.inc.seq);
  put(4, spec.inc.worker_id);
  for (const IncElement& e : spec.inc.elements) {
    put(4, e.key);
    put(4, e.value);
  }

  pkt.meta.flow_id = spec.inc.flow_id;
  pkt.meta.coflow_id = spec.inc.coflow_id;
  pkt.meta.flow_hash = 0;  // new flow identity: any cached ECMP hash is stale
}

std::optional<std::size_t> decode_inc_fixed(const Packet& pkt, IncHeader& out) {
  const Buffer& b = pkt.data;
  if (b.size() < kIncOffset + kIncFixedBytes) return std::nullopt;
  if (b.read(12, 2) != kEtherTypeIpv4) return std::nullopt;
  if (b.read(kIpOffset + 9, 1) != kIpProtoUdp) return std::nullopt;
  if (b.read(kUdpOffset + 2, 2) != kIncUdpPort) return std::nullopt;

  out.opcode = static_cast<IncOpcode>(b.read(kIncOffset, 1));
  const std::size_t elems = b.read(kIncOffset + 1, 1);
  out.coflow_id = static_cast<std::uint16_t>(b.read(kIncOffset + 2, 2));
  out.flow_id = static_cast<std::uint32_t>(b.read(kIncOffset + 4, 4));
  out.seq = static_cast<std::uint32_t>(b.read(kIncOffset + 8, 4));
  out.worker_id = static_cast<std::uint32_t>(b.read(kIncOffset + 12, 4));
  if (b.size() < kIncOffset + kIncFixedBytes + elems * kIncElementBytes) return std::nullopt;
  return elems;
}

bool decode_inc(const Packet& pkt, IncHeader& out) {
  const std::optional<std::size_t> elems = decode_inc_fixed(pkt, out);
  if (!elems) return false;
  const Buffer& b = pkt.data;
  out.elements.clear();
  out.elements.reserve(*elems);
  for (std::size_t i = 0; i < *elems; ++i) {
    const std::size_t at = kIncOffset + kIncFixedBytes + i * kIncElementBytes;
    out.elements.push_back(IncElement{static_cast<std::uint32_t>(b.read(at, 4)),
                                      static_cast<std::uint32_t>(b.read(at + 4, 4))});
  }
  return true;
}

}  // namespace adcp::packet

#include "fastpath/fastpath.hpp"

#include <bit>

#include "sim/random.hpp"

namespace adcp::fastpath {

bool inspect(const packet::Packet& pkt, std::size_t parse_max_elems,
             WireView& out) {
  const packet::Buffer& b = pkt.data;
  if (b.size() < kIncHeaderBytes) return false;
  // Constant-field guards: these are the bytes the standard deparser emits
  // as literals (not from the PHV). If any differs, a deparse would not
  // reproduce this packet byte-for-byte, so it stays on the slow path.
  if (b.read(12, 2) != 0x0800) return false;        // ethertype IPv4
  if (b.read(14, 1) != 0x45) return false;          // version/IHL
  if (b.read(18, 2) != 0) return false;             // IP identification
  if (b.read(20, 2) != 0x4000) return false;        // flags/fragment (DF)
  if (b.read(23, 1) != 17) return false;            // protocol UDP
  if (b.read(24, 2) != 0) return false;             // IP checksum
  if (b.read(36, 2) != packet::kIncUdpPort) return false;
  if (b.read(40, 2) != 0) return false;             // UDP checksum
  out.elem_count = static_cast<std::uint8_t>(b.read(43, 1));
  if (parse_max_elems > 0) {
    // Array graphs extract elem_count lanes; the parser rejects wider
    // packets and truncated element regions — mirror both outcomes.
    if (out.elem_count > parse_max_elems) return false;
    if (b.size() < kIncHeaderBytes + 8ull * out.elem_count) return false;
  }
  out.ttl = static_cast<std::uint8_t>(b.read(22, 1));
  out.ip_src = static_cast<std::uint32_t>(b.read(26, 4));
  out.ip_dst = static_cast<std::uint32_t>(b.read(30, 4));
  out.udp_src = static_cast<std::uint16_t>(b.read(34, 2));
  out.udp_dst = static_cast<std::uint16_t>(b.read(36, 2));
  out.opcode = static_cast<std::uint8_t>(b.read(42, 1));
  out.coflow_id = static_cast<std::uint16_t>(b.read(44, 2));
  out.flow_id = b.read(46, 4);
  out.worker_id = static_cast<std::uint32_t>(b.read(54, 4));
  return true;
}

FlowCache::FlowCache(std::uint32_t entries) {
  std::uint64_t n = std::bit_ceil(std::uint64_t{entries ? entries : 1});
  slots_.resize(n);
  mask_ = n - 1;
}

void FlowCache::sync(const FastpathContract& c) {
  const std::uint64_t fib = c.fib_version ? *c.fib_version : 0;
  const std::uint64_t store = c.store ? c.store->mutations() : 0;
  if (fib != fib_seen_ || store != store_seen_) {
    fib_seen_ = fib;
    store_seen_ = store;
    invalidate_all();
  }
}

FlowCache::Entry* FlowCache::probe(const WireView& w,
                                   packet::PortId ingress_port, bool query) {
  Entry& e = slots_[signature(w, ingress_port, query) & mask_];
  if (e.valid != 0 && e.gen == gen_ && e.ip_src == w.ip_src &&
      e.ip_dst == w.ip_dst && e.udp_src == w.udp_src &&
      e.udp_dst == w.udp_dst && e.ingress_port == ingress_port &&
      e.query == (query ? 1 : 0)) {
    ++stats_.hits;
    return &e;
  }
  ++stats_.misses;
  return nullptr;
}

FlowCache::Entry& FlowCache::fill(const WireView& w,
                                  packet::PortId ingress_port, bool query,
                                  packet::PortId forward_port,
                                  packet::PortId served_port,
                                  const Timing& timing) {
  Entry& e = slots_[signature(w, ingress_port, query) & mask_];
  if (e.valid != 0 && e.gen == gen_) {
    ++stats_.evictions;  // displacing a live entry (signature collision)
  } else {
    ++stats_.occupancy;
  }
  e.ip_src = w.ip_src;
  e.ip_dst = w.ip_dst;
  e.udp_src = w.udp_src;
  e.udp_dst = w.udp_dst;
  e.ingress_port = ingress_port;
  e.query = query ? 1 : 0;
  e.valid = 1;
  e.forward_port = forward_port;
  e.served_port = served_port;
  e.timing = timing;
  e.gen = gen_;
  return e;
}

void FlowCache::invalidate_all() {
  stats_.invalidations += stats_.occupancy;
  stats_.occupancy = 0;
  ++gen_;  // lazy: stale gen stamps make every slot miss
}

std::uint64_t FlowCache::signature(const WireView& w,
                                   packet::PortId ingress_port, bool query) {
  std::uint64_t x =
      (static_cast<std::uint64_t>(w.ip_src) << 32) | w.ip_dst;
  x = sim::mix64(x);
  x ^= (static_cast<std::uint64_t>(w.udp_src) << 48) |
       (static_cast<std::uint64_t>(w.udp_dst) << 32) |
       (static_cast<std::uint64_t>(ingress_port) << 1) |
       (query ? 1ULL : 0ULL);
  return sim::mix64(x);
}

packet::Packet copy_patch(packet::Pool& pool, packet::Packet original,
                          const WireView& w, Patch patch) {
  packet::Packet out = pool.acquire();
  out.data = original.data;
  out.meta = original.meta;
  out.meta.flow_id = w.flow_id;
  out.meta.coflow_id = w.coflow_id;
  if (patch != Patch::kPassthrough) {
    out.data.write(22, 1, static_cast<std::uint64_t>(w.ttl) - 1);
    if (patch == Patch::kServed) {
      out.data.write(
          42, 1, static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit));
      out.data.write(26, 4, w.ip_dst);
      out.data.write(30, 4, w.ip_src);
      out.meta.flow_hash = 0;  // tuple swapped: the cached hash is stale
    }
  }
  pool.release(std::move(original));
  return out;
}

}  // namespace adcp::fastpath

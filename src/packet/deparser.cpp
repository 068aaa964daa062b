#include "packet/deparser.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "packet/fields.hpp"
#include "packet/headers.hpp"

namespace adcp::packet {

void Deparser::deparse_into(const Phv& phv, const Packet& original,
                            std::size_t payload_offset, Packet& out) const {
  assert(&out != &original);
  out.data.clear();
  out.meta = original.meta;
  Buffer& b = out.data;

  // Size pass first, then one resize and in-place writes: emitting through
  // append() costs a vector resize per field, which dominates deparse time.
  std::size_t total = 0;
  for (const EmitOp& op : ops_) {
    if (const auto* s = std::get_if<EmitScalar>(&op)) {
      total += s->width;
    } else if (const auto* c = std::get_if<EmitConst>(&op)) {
      total += c->width;
    } else if (const auto* a = std::get_if<EmitArray>(&op)) {
      std::size_t count = 0;
      std::size_t element_bytes = 0;
      for (const EmitArray::Lane& lane : a->lanes) {
        count = std::max(count, phv.array(lane.src).size());
        element_bytes += lane.width;
      }
      total += count * element_bytes;
    }
  }
  const std::size_t payload =
      payload_offset < original.data.size() ? original.data.size() - payload_offset : 0;
  b.resize(total + payload);

  std::size_t at = 0;
  for (const EmitOp& op : ops_) {
    if (const auto* s = std::get_if<EmitScalar>(&op)) {
      b.write(at, s->width, phv.get_or(s->src, 0));
      at += s->width;
    } else if (const auto* c = std::get_if<EmitConst>(&op)) {
      b.write(at, c->width, c->value);
      at += c->width;
    } else if (const auto* a = std::get_if<EmitArray>(&op)) {
      std::size_t count = 0;
      for (const EmitArray::Lane& lane : a->lanes) {
        count = std::max(count, phv.array(lane.src).size());
      }
      for (std::size_t i = 0; i < count; ++i) {
        for (const EmitArray::Lane& lane : a->lanes) {
          const auto arr = phv.array(lane.src);
          b.write(at, lane.width, i < arr.size() ? arr[i] : 0);
          at += lane.width;
        }
      }
    }
  }

  if (payload > 0) {
    std::memcpy(b.bytes().data() + at, original.data.bytes().data() + payload_offset, payload);
  }

  // Keep PHV-derived metadata coherent.
  if (phv.has(fields::kIncFlowId)) out.meta.flow_id = phv.get(fields::kIncFlowId);
  if (phv.has(fields::kIncCoflowId)) out.meta.coflow_id = phv.get(fields::kIncCoflowId);
  if (phv.has(fields::kMetaFlowHash)) out.meta.flow_hash = phv.get(fields::kMetaFlowHash);
}

std::vector<EmitOp> inc_header_emits() {
  namespace f = fields;
  return {
      // Ethernet.
      EmitScalar{f::kEthDst, 6}, EmitScalar{f::kEthSrc, 6}, EmitScalar{f::kEthType, 2},
      // IPv4: version/IHL, TOS, length, id, flags, TTL, protocol, checksum
      // (not modeled), addresses.
      EmitConst{0x45, 1}, EmitScalar{f::kIpTos, 1}, EmitScalar{f::kIpLen, 2},
      EmitConst{0, 2}, EmitConst{0x4000, 2}, EmitScalar{f::kIpTtl, 1},
      EmitScalar{f::kIpProto, 1}, EmitConst{0, 2}, EmitScalar{f::kIpSrc, 4},
      EmitScalar{f::kIpDst, 4},
      // UDP; checksum not modeled.
      EmitScalar{f::kUdpSrc, 2}, EmitScalar{f::kUdpDst, 2}, EmitScalar{f::kUdpLen, 2},
      EmitConst{0, 2},
      // INC fixed header.
      EmitScalar{f::kIncOpcode, 1}, EmitScalar{f::kIncElemCount, 1},
      EmitScalar{f::kIncCoflowId, 2}, EmitScalar{f::kIncFlowId, 4},
      EmitScalar{f::kIncSeq, 4}, EmitScalar{f::kIncWorkerId, 4},
  };
}

Deparser standard_deparser() {
  // Assembles exactly the layout of make_inc_packet(). A program that
  // resizes the key/value arrays keeps kIncElemCount equal to the array
  // size itself (the standard programs in src/core do this).
  std::vector<EmitOp> ops = inc_header_emits();
  ops.emplace_back(std::in_place_type<EmitArray>,
                   EmitArray{{{array_fields::kIncKeys, 4}, {array_fields::kIncValues, 4}}});
  return Deparser{std::move(ops)};
}

const std::shared_ptr<const Deparser>& shared_standard_deparser() {
  static const auto deparser = std::make_shared<const Deparser>(standard_deparser());
  return deparser;
}

}  // namespace adcp::packet

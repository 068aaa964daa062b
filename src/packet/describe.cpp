#include "packet/describe.hpp"

#include <sstream>

#include "packet/headers.hpp"

namespace adcp::packet {

std::string opcode_name(std::uint8_t opcode) {
  switch (static_cast<IncOpcode>(opcode)) {
    case IncOpcode::kRead: return "Read";
    case IncOpcode::kWrite: return "Write";
    case IncOpcode::kAggUpdate: return "AggUpdate";
    case IncOpcode::kAggResult: return "AggResult";
    case IncOpcode::kShuffle: return "Shuffle";
    case IncOpcode::kBspStep: return "BspStep";
    case IncOpcode::kGroupXfer: return "GroupXfer";
    case IncOpcode::kPlain: return "Plain";
    case IncOpcode::kLockAcquire: return "LockAcquire";
    case IncOpcode::kLockRelease: return "LockRelease";
    case IncOpcode::kLockReply: return "LockReply";
    case IncOpcode::kData: return "Data";
    case IncOpcode::kAck: return "Ack";
    case IncOpcode::kPropose: return "Propose";
    case IncOpcode::kOrdered: return "Ordered";
    case IncOpcode::kCtrlUpdate: return "CtrlUpdate";
    case IncOpcode::kChurnQuery: return "ChurnQuery";
    case IncOpcode::kChurnHit: return "ChurnHit";
    case IncOpcode::kChurnMiss: return "ChurnMiss";
    case IncOpcode::kTelemReport: return "TelemReport";
    case IncOpcode::kTelemPostcard: return "TelemPostcard";
  }
  return "op" + std::to_string(opcode);
}

namespace {

std::string ip_to_string(std::uint32_t ip) {
  std::ostringstream out;
  out << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.' << ((ip >> 8) & 0xff)
      << '.' << (ip & 0xff);
  return out.str();
}

}  // namespace

std::string describe(const Packet& pkt) {
  std::ostringstream out;
  out << pkt.size() << 'B';

  const Buffer& b = pkt.data;
  if (b.size() < kEthernetBytes) return out.str() + " (runt)";
  if (b.read(12, 2) != kEtherTypeIpv4) {
    out << " non-IP(0x" << std::hex << b.read(12, 2) << ')';
    return out.str();
  }
  if (b.size() < kEthernetBytes + kIpv4Bytes) return out.str() + " (truncated IP)";

  out << ' ' << ip_to_string(static_cast<std::uint32_t>(b.read(kEthernetBytes + 12, 4)))
      << "->" << ip_to_string(static_cast<std::uint32_t>(b.read(kEthernetBytes + 16, 4)));
  const bool ce = (b.read(kEthernetBytes + 1, 1) & 0x3) == 0x3;

  IncHeader inc;
  if (decode_inc(pkt, inc)) {
    out << " INC " << opcode_name(static_cast<std::uint8_t>(inc.opcode)) << " cf="
        << inc.coflow_id << " flow=" << inc.flow_id << " seq=" << inc.seq
        << " elems=" << inc.elements.size();
  } else if (b.read(kEthernetBytes + 9, 1) == kIpProtoUdp) {
    out << " UDP";
  }
  if (ce) out << " [CE]";
  return out.str();
}

}  // namespace adcp::packet

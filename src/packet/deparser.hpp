// Programmable deparser: rebuilds wire bytes from a PHV.
//
// Mirrors the parser: an ordered list of emit operations serializes scalar
// and array fields back into a packet, then the unparsed payload (if any)
// is appended verbatim.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "packet/packet.hpp"
#include "packet/phv.hpp"

namespace adcp::packet {

/// Emits `width` big-endian bytes from scalar `src` (0 if the field is
/// invalid — headers the program never touched keep their default).
struct EmitScalar {
  FieldId src = 0;
  std::size_t width = 0;
};

/// Emits a literal constant (for fixed header bytes the PHV does not carry).
struct EmitConst {
  std::uint64_t value = 0;
  std::size_t width = 0;
};

/// Emits every element of one or more parallel array fields, interleaved
/// per element (lane order = byte order within the element).
struct EmitArray {
  struct Lane {
    ArrayFieldId src = 0;
    std::size_t width = 0;
  };
  std::vector<Lane> lanes;
};

using EmitOp = std::variant<EmitScalar, EmitConst, EmitArray>;

/// Serializes PHVs into packets according to an emit program.
class Deparser {
 public:
  explicit Deparser(std::vector<EmitOp> ops) : ops_(std::move(ops)) {}

  /// Builds the header bytes from `phv`, then appends
  /// `original.data` bytes from `payload_offset` onward. Metadata fields of
  /// `original` are preserved (minus any fields the caller overrides).
  [[nodiscard]] Packet deparse(const Phv& phv, const Packet& original,
                               std::size_t payload_offset) const {
    Packet out;
    deparse_into(phv, original, payload_offset, out);
    return out;
  }

  /// Same, but serializes into `out` (contents discarded, buffer capacity
  /// kept). `out` is typically a pool-recycled packet, making steady-state
  /// deparsing allocation-free. `out` must not alias `original`.
  void deparse_into(const Phv& phv, const Packet& original,
                    std::size_t payload_offset, Packet& out) const;

 private:
  std::vector<EmitOp> ops_;
};

/// Emit ops for the Ethernet/IPv4/UDP headers and the fixed INC header of
/// make_inc_packet()'s layout; every INC deparser appends its element area.
std::vector<EmitOp> inc_header_emits();

/// Deparser matching `standard_parse_graph()`: Ethernet/IPv4/UDP/INC with
/// key/value arrays. The element area follows the array size; length fields
/// are emitted as the PHV carries them.
Deparser standard_deparser();
/// The process-wide, immutable standard_deparser().
const std::shared_ptr<const Deparser>& shared_standard_deparser();

}  // namespace adcp::packet

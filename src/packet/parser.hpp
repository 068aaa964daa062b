// Programmable packet parser.
//
// A parse graph is a small state machine (Gibb et al., "Design principles
// for packet parsers"): each state extracts fields from the current header,
// then selects the next state from one extracted field. The ADCP extension
// is the array extract: a state may pull a *counted array* of elements into
// the PHV's array slots (paper §3.2), instead of being limited to scalars.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "packet/packet.hpp"
#include "packet/phv.hpp"

namespace adcp::packet {

using StateId = std::uint32_t;
/// Terminal: parsing succeeded.
inline constexpr StateId kAcceptState = std::numeric_limits<StateId>::max();
/// Terminal: packet is malformed / unwanted; drop it.
inline constexpr StateId kDropState = kAcceptState - 1;

/// Extracts `width` bytes at `offset` (relative to the state's header start)
/// into scalar field `dst`.
struct Extract {
  std::size_t offset = 0;
  std::size_t width = 0;
  FieldId dst = 0;
};

/// Extracts a counted array of fixed-stride elements starting at `offset`
/// (relative to the state's header start). The element count is read from
/// scalar `count_field`, which must have been extracted earlier in the same
/// state. Each element contributes one value per lane.
struct ArrayExtract {
  std::size_t offset = 0;
  FieldId count_field = 0;
  std::size_t stride = 0;
  /// Hardware bound on extractable elements; packets declaring more are
  /// rejected (sent to drop).
  std::size_t max_count = 64;
  struct Lane {
    std::size_t offset = 0;  ///< within the element
    std::size_t width = 0;
    ArrayFieldId dst = 0;
  };
  std::vector<Lane> lanes;
};

/// One parse-graph state: what to extract and where to go next.
struct ParseState {
  std::string name;
  /// Fixed bytes this header occupies (the array area, if any, is extra).
  std::size_t header_len = 0;
  std::vector<Extract> extracts;
  std::optional<ArrayExtract> array;
  /// If set, the next state is chosen by matching this field's value in
  /// `transitions`; otherwise `fallthrough` is taken unconditionally.
  /// Flat (key, next-state) pairs: real parse graphs have a handful of
  /// transitions per state, where a linear scan beats a hash map.
  std::optional<FieldId> select;
  std::vector<std::pair<std::uint64_t, StateId>> transitions;
  StateId fallthrough = kAcceptState;
};

/// A parser program: states plus a start state.
class ParseGraph {
 public:
  /// Adds a state and returns its id. Ids are dense and start at 0.
  StateId add_state(ParseState state) {
    states_.push_back(std::move(state));
    return static_cast<StateId>(states_.size() - 1);
  }

  [[nodiscard]] const ParseState& state(StateId id) const { return states_.at(id); }
  [[nodiscard]] std::size_t size() const { return states_.size(); }

  void set_start(StateId id) { start_ = id; }
  [[nodiscard]] StateId start() const { return start_; }

 private:
  std::vector<ParseState> states_;
  StateId start_ = 0;
};

/// Outcome of parsing one packet.
struct ParseResult {
  bool accepted = false;
  Phv phv;
  /// Bytes consumed by headers (payload begins here).
  std::size_t consumed = 0;
  /// States visited, in order — the parser cost model charges one parser
  /// cycle per state.
  std::vector<StateId> path;

  /// Back to a just-constructed state, keeping the path's and the PHV
  /// arrays' heap capacity — reuse one result per hot loop.
  void reset() {
    accepted = false;
    consumed = 0;
    path.clear();
    phv.reset();
  }
};

/// Executes a ParseGraph over packets. Stateless and reusable.
class Parser {
 public:
  explicit Parser(const ParseGraph* graph) : graph_(graph) {}

  /// Parses `pkt`; also copies intrinsic metadata (ingress port, flow ids)
  /// into the PHV's meta fields.
  [[nodiscard]] ParseResult parse(const Packet& pkt) const {
    ParseResult res;
    parse_into(pkt, res);
    return res;
  }

  /// Same, but reuses `res` (reset internally): a warmed-up result makes
  /// parsing allocation-free, which is what the switch data paths and the
  /// zero-allocation forwarding loop rely on.
  void parse_into(const Packet& pkt, ParseResult& res) const;

 private:
  const ParseGraph* graph_;  // not owned
};

/// The Ethernet → IPv4 → UDP → INC graph used by all programs in this
/// repository. `max_elems` bounds the array extract (0 disables array
/// parsing, modeling a scalar-only RMT parser that accepts at the INC
/// fixed header and leaves elements in the payload).
ParseGraph standard_parse_graph(std::size_t max_elems = 64);

/// The process-wide, immutable standard_parse_graph(Lanes): built once and
/// shared by every program that keeps its model's default graph.
template <std::size_t Lanes>
const std::shared_ptr<const ParseGraph>& shared_standard_parse_graph() {
  static const auto graph = std::make_shared<const ParseGraph>(standard_parse_graph(Lanes));
  return graph;
}

}  // namespace adcp::packet

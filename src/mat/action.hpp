// Match-action actions.
//
// An action is a small program over the PHV. We model it as a callable plus
// named constructors for the primitives every RMT-class chip provides
// (set/add/copy field, forward, drop). Keeping actions as callables lets
// application programs express arbitrary per-stage logic while the
// surrounding machinery still accounts for tables, memory, and cycles.
#pragma once

#include <functional>
#include <utility>

#include "packet/fields.hpp"
#include "packet/phv.hpp"

namespace adcp::mat {

/// A PHV transformation executed on a table hit (or as a default action).
using Action = std::function<void(packet::Phv&)>;

namespace actions {

/// No-op.
inline Action nop() {
  return [](packet::Phv&) {};
}

/// phv[dst] = value.
inline Action set_field(packet::FieldId dst, std::uint64_t value) {
  return [dst, value](packet::Phv& phv) { phv.set(dst, value); };
}

/// phv[dst] += delta (wrapping).
inline Action add_to_field(packet::FieldId dst, std::uint64_t delta) {
  return [dst, delta](packet::Phv& phv) { phv.set(dst, phv.get_or(dst, 0) + delta); };
}

/// Sets the unicast egress port.
inline Action forward_to(std::uint64_t port) {
  return set_field(packet::fields::kMetaEgressPort, port);
}

/// Marks the packet for drop at the end of the pipeline.
inline Action drop() {
  return set_field(packet::fields::kMetaDrop, 1);
}

/// Runs `a` then `b`.
inline Action sequence(Action a, Action b) {
  return [a = std::move(a), b = std::move(b)](packet::Phv& phv) {
    a(phv);
    b(phv);
  };
}

}  // namespace actions

}  // namespace adcp::mat

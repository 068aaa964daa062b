// Destination-address routing programs for the three switch tiers.
//
// Unlike the single-switch programs in src/rmt|core|rtc ("port = low byte
// of dst IP"), these route through a topo::ForwardingTable (exact host
// routes + longest-prefix ECMP groups) and decrement the IP TTL, so a
// receiver can recover the hop count from the wire (the Network's
// topo.hops histogram). The table is shared by every pipeline of the
// switch via shared_ptr and is read-only after construction.
#pragma once

#include <cstddef>
#include <memory>

#include "core/config.hpp"
#include "core/program.hpp"
#include "fastpath/fastpath.hpp"
#include "packet/phv.hpp"
#include "rmt/config.hpp"
#include "rmt/program.hpp"
#include "rtc/config.hpp"
#include "rtc/rtc_switch.hpp"
#include "telem/sketch.hpp"
#include "topo/routing.hpp"

namespace adcp::topo {

/// The one routing action all three tiers share: TTL check + decrement,
/// then FIB lookup on the flow fields. Expired TTL or a missing route
/// drops the packet in the pipe (kMetaDrop), which the switch accounts as
/// a no-route drop. The ECMP hash carried in kMetaFlowHash (if any) is
/// reused and the first computation is written back, so later hops skip
/// the recompute (all FIBs in a fabric share one seed). `decrement` is
/// false on an RMT recirculation pass: the first pass already charged the
/// hop, and a second decrement would corrupt the hop-count probe.
void route_and_decrement(packet::Phv& phv, const ForwardingTable& fib, bool decrement = true);

/// The fast-path contract every pure routing program can vouch for: the
/// verdict is a function of the 5-tuple alone, edge pipelines stay empty,
/// and the FIB version counter gates invalidation.
fastpath::FastpathContract routing_contract(const std::shared_ptr<const ForwardingTable>& fib,
                                            std::size_t parse_max_elems);

// Passing a telem::HeavyHitterSketch arms the PRECISION-style heavy-hitter
// program alongside routing (DESIGN.md §14): every data INC packet updates
// the sketch keyed by flow id. The update is model-shaped — RMT cannot
// read-modify-write a non-owned entry in one pipeline pass, so a claim
// costs a recirculation (the instrumented recirc path); ADCP and RTC claim
// in a single pass against their shared memories. A sketch-armed program
// never vouches a fastpath contract (its cycle cost is state-dependent).

/// RMT: route + TTL decrement in ingress stage 0 of every pipeline. With a
/// sketch, a claim-lottery win requests kMetaRecirc and the recirculated
/// pass performs the claim (routing again, but without a second decrement).
rmt::RmtProgram rmt_routing_program(const rmt::RmtConfig& config,
                                    std::shared_ptr<const ForwardingTable> fib,
                                    telem::HeavyHitterSketch* sketch = nullptr);

/// ADCP: route + TTL decrement in central stage 0; flows spread over the
/// central pipelines by flow-id hash (same placement as forward_program).
/// With a sketch, central stage 0 also runs the single-pass update.
core::AdcpProgram adcp_routing_program(const core::AdcpConfig& config,
                                       std::shared_ptr<const ForwardingTable> fib,
                                       telem::HeavyHitterSketch* sketch = nullptr);

/// RTC: route + TTL decrement; costs the forwarding base plus one
/// shared-memory FIB access. With a sketch, the update charges two more
/// shared-memory accesses (probe + write).
rtc::RtcProgram rtc_routing_program(const rtc::RtcConfig& config,
                                    std::shared_ptr<const ForwardingTable> fib,
                                    telem::HeavyHitterSketch* sketch = nullptr);

}  // namespace adcp::topo

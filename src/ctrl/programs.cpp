#include "ctrl/programs.hpp"

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "tm/placement.hpp"
#include "topo/programs.hpp"

namespace adcp::ctrl {

namespace {

using packet::Phv;
using packet::fields::kIncOpcode;
using packet::fields::kIncWorkerId;
using packet::fields::kIpDst;
using packet::fields::kIpSrc;
using packet::fields::kMetaFlowHash;
using topo::ForwardingTable;

/// The shared churn action; returns the stage cycle cost (1 for pure
/// routing, 2 when the versioned store was consulted — one extra table
/// access).
std::uint64_t run_churn(Phv& phv, const ForwardingTable& fib,
                        mat::VersionedStore& store) {
  const auto opcode = static_cast<packet::IncOpcode>(phv.get_or(kIncOpcode, 0));
  if (opcode != packet::IncOpcode::kChurnQuery) {
    topo::route_and_decrement(phv, fib);
    return 1;
  }
  const auto key = static_cast<std::uint32_t>(phv.get_or(kIncWorkerId, 0));
  std::uint32_t value = 0;
  if (store.lookup(key, value) == mat::VersionedStore::Lookup::kHit) {
    // Answer from the switch: turn the query around. The reply's flow_id
    // and seq are untouched, which is what the requester matches on.
    phv.set(kIncOpcode, static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit));
    const std::uint64_t src = phv.get_or(kIpSrc, 0);
    const std::uint64_t dst = phv.get_or(kIpDst, 0);
    phv.set(kIpDst, src);
    phv.set(kIpSrc, dst);
    phv.set(kMetaFlowHash, 0);  // 5-tuple changed: the cached ECMP hash is stale
  }
  // Miss (or staged-but-uncommitted): the query continues unchanged to the
  // backing store. Either way the packet takes the normal routing tail.
  topo::route_and_decrement(phv, fib);
  return 2;
}

/// Churn contract: topo's routing contract plus the store — queries are
/// looked up live on every cache hit, and the store's mutation counter
/// (bumped by kCtrlUpdate stage()s and commit flips) feeds invalidation.
fastpath::FastpathContract churn_contract(
    const std::shared_ptr<const topo::ForwardingTable>& fib,
    mat::VersionedStore* store, std::size_t parse_max_elems) {
  fastpath::FastpathContract c = topo::routing_contract(fib, parse_max_elems);
  c.store = store;
  return c;
}

}  // namespace

rmt::RmtProgram rmt_churn_program(const rmt::RmtConfig& /*config*/,
                                  std::shared_ptr<const topo::ForwardingTable> fib,
                                  mat::VersionedStore* store) {
  rmt::RmtProgram prog;
  prog.setup_ingress = [fib, store](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [fib, store](Phv& phv, pipeline::Stage&) -> std::uint64_t {
      return run_churn(phv, *fib, *store);
    });
  };
  prog.fastpath = churn_contract(fib, store, rmt::kRmtParseLanes);
  return prog;
}

core::AdcpProgram adcp_churn_program(const core::AdcpConfig& config,
                                     std::shared_ptr<const topo::ForwardingTable> fib,
                                     mat::VersionedStore* store) {
  core::AdcpProgram prog;
  prog.placement = tm::placement::by_flow_hash(config.central_pipeline_count);
  prog.setup_central = [fib, store](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [fib, store](Phv& phv, pipeline::Stage&) -> std::uint64_t {
      return run_churn(phv, *fib, *store);
    });
  };
  prog.fastpath = churn_contract(fib, store, core::kAdcpParseLanes);
  return prog;
}

}  // namespace adcp::ctrl

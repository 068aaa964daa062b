#include "ctrl/control_plane.hpp"

#include <cassert>

#include "core/adcp_switch.hpp"
#include "ctrl/programs.hpp"
#include "packet/control.hpp"
#include "rmt/rmt_switch.hpp"

namespace adcp::ctrl {

ControlPlane::ControlPlane(ControlPlaneConfig config, topo::Network& net)
    : config_(config), net_(&net) {
  assert(net.control_channel() &&
         "build the fabric with params.control_channel = true");
}

void ControlPlane::attach(std::size_t i) {
  assert(!stores_.contains(i) && "switch already attached");
  const topo::SwitchKind kind = net_->kind_of(i);
  net::SwitchDevice& device = net_->device(i);

  // The store registers under the switch's own scope ("topo.sw<i>.ctrl.*"
  // — the shard registry in parallel mode), so merged snapshots carry the
  // same names as the sequential build.
  sim::Scope scope = net_->switch_scope(i).scope("ctrl");
  std::shared_ptr<topo::ForwardingTable> fib = net_->fib_of(i);

  switch (kind) {
    case topo::SwitchKind::kRmt: {
      auto& sw = static_cast<rmt::RmtSwitch&>(device);
      const std::size_t per_pipe = std::max<std::size_t>(
          1, config_.store_capacity / sw.config().pipeline_count);
      auto store = std::make_unique<mat::VersionedStore>(per_pipe, scope);
      sw.load_program(rmt_churn_program(sw.config(), fib, store.get()));
      stores_.emplace(i, std::move(store));
      break;
    }
    case topo::SwitchKind::kAdcp: {
      auto& sw = static_cast<core::AdcpSwitch&>(device);
      auto store = std::make_unique<mat::VersionedStore>(config_.store_capacity, scope);
      sw.load_program(adcp_churn_program(sw.config(), fib, store.get()));
      stores_.emplace(i, std::move(store));
      break;
    }
    case topo::SwitchKind::kRtc:
      assert(false && "churn programs target the pipelined tiers (RMT/ADCP)");
      return;
  }

  // Management-port sink: stage each update packet as it lands; a commit
  // packet arms the epoch flip at the next tick boundary. Both run on the
  // switch's shard (mgmt TX dispatch and the scheduled event), so the
  // handoff is deterministic under any worker count.
  mat::VersionedStore* store = stores_.at(i).get();
  sim::Simulator& ssim = net_->sim_of_switch(i);
  const sim::Time tick = config_.commit_tick;
  net_->set_control_sink(i, [store, &ssim, tick](const packet::Packet& pkt) {
    packet::IncHeader hdr;
    if (!packet::decode_inc(pkt, hdr)) return;
    packet::ControlUpdate update;
    if (!packet::decode_ctrl(hdr, update)) return;
    store->stage(update, ssim.now());
    if (update.commit) {
      const sim::Time at = (ssim.now() / tick + 1) * tick;
      ssim.at(at, [store, at] { store->commit(at); });
    }
  });
}

void ControlPlane::attach_all() {
  for (std::size_t i = 0; i < net_->switch_count(); ++i) {
    if (net_->mgmt_port_of(i) != packet::kInvalidPort) attach(i);
  }
}

std::uint64_t ControlPlane::total_hits() const {
  std::uint64_t n = 0;
  for (const auto& [i, s] : stores_) n += s->metrics().hits.value();
  return n;
}

std::uint64_t ControlPlane::total_misses() const {
  std::uint64_t n = 0;
  for (const auto& [i, s] : stores_) n += s->metrics().misses.value();
  return n;
}

std::uint64_t ControlPlane::total_staleness_misses() const {
  std::uint64_t n = 0;
  for (const auto& [i, s] : stores_) n += s->metrics().staleness_misses.value();
  return n;
}

std::uint64_t ControlPlane::total_installs() const {
  std::uint64_t n = 0;
  for (const auto& [i, s] : stores_) n += s->metrics().installs.value();
  return n;
}

}  // namespace adcp::ctrl

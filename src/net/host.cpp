#include "net/host.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

namespace adcp::net {

sim::Time Host::send(packet::Packet pkt, sim::Time earliest) {
  const sim::Time start = std::max({up_.sim->now(), nic_free_, earliest});
  nic_free_ = start + up_.link.serialize(pkt.size());
  metrics_.tx_packets.add();
  metrics_.tx_bytes.add(pkt.size());
  pkt.meta.ingress_port = port_;
  spans_.span(sim::SpanKind::kHostTx, pkt.meta.trace_id, start, nic_free_, port_,
              pkt.size());

  // The switch sees the first bit after propagation — unless the link
  // lottery eats the packet.
  const sim::Time arrival = start + up_.link.propagation;
  if (up_.lost(pkt, arrival)) return arrival;
  up_.deliver(arrival, [this, pkt = std::move(pkt)]() mutable {
    device_->inject(port_, std::move(pkt));
  });
  return arrival;
}

sim::Time Host::send_inc(const packet::IncPacketSpec& spec, sim::Time earliest) {
  packet::Packet pkt = pool_ != nullptr ? pool_->acquire() : packet::Packet{};
  packet::make_inc_packet_into(spec, pkt);
  // Head-sampling decision point: the sending host is the only place that
  // sees (flow, seq) before the packet fans out, so the trace id is stamped
  // here once and carried across every later hop.
  if (sampler_ != nullptr && sampler_->sampled(spec.inc.flow_id)) {
    pkt.meta.trace_id = sampler_->trace_id(spec.inc.flow_id, spec.inc.seq);
  }
  return send(std::move(pkt), earliest);
}

void Host::deliver_from_switch(packet::Packet pkt) {
  // Runs on the switch's simulator. Across a PDES cut the downlink is
  // lossless, so no host state is written before finish_rx runs on the
  // host's own shard.
  const sim::Time now = down_.sim->now();
  if (down_.lost(pkt, now)) return;
  // Span begin rides in the packet, so the capture below stays [this, pkt]:
  // 96 of the 120 inline callback bytes.
  pkt.meta.trace_mark = now;
  down_.deliver(now + down_.link.propagation, [this, pkt = std::move(pkt)]() mutable {
    finish_rx(std::move(pkt));
  });
}

void Host::cut(sim::Mailbox& up, sim::Simulator& switch_sim, sim::Mailbox& down) {
  assert(up_.link.loss_rate == 0.0 && "a cut access link must be lossless");
  up_.mailbox = &up;
  down_.sim = &switch_sim;
  down_.mailbox = &down;
}

void Host::finish_rx(packet::Packet pkt) {
  const sim::Time now = up_.sim->now();
  metrics_.rx_packets.add();
  metrics_.rx_bytes.add(pkt.size());
  last_rx_ = now;
  spans_.span(sim::SpanKind::kHostRx, pkt.meta.trace_id, pkt.meta.trace_mark, now, port_,
              pkt.size());
  if (pkt.size() > packet::kEthernetBytes + 1 &&
      pkt.data.read(12, 2) == packet::kEtherTypeIpv4 &&
      (pkt.data.read(packet::kEthernetBytes + 1, 1) & 0x3) == 0x3) {
    metrics_.rx_ecn_marked.add();
  }

  packet::IncHeader inc;  // header fields only: the elements stay unread
  if (const std::optional<std::size_t> elems = packet::decode_inc_fixed(pkt, inc)) {
    metrics_.rx_goodput_bytes.add(*elems * packet::kIncElementBytes);
    auto& highest = highest_seq_[inc.flow_id];
    if (inc.seq < highest) {
      metrics_.rx_reordered.add();
    } else {
      highest = inc.seq;
    }
    if (tracker_ != nullptr) {
      tracker_->deliver(inc.coflow_id, inc.flow_id, pkt.size(), now);
    }
  } else if (tracker_ != nullptr && pkt.meta.coflow_id != 0) {
    tracker_->deliver(pkt.meta.coflow_id, pkt.meta.flow_id, pkt.size(), now);
  }

  for (const RxCallback& cb : rx_callbacks_) cb(*this, pkt);
  if (pool_ != nullptr) pool_->release(std::move(pkt));
}

Fabric::Fabric(sim::Simulator& sim, SwitchDevice& device, Link link, std::uint64_t seed,
               sim::Scope scope, std::size_t host_count)
    : rng_(seed),
      scope_(sim::resolve_scope(scope, own_metrics_, "net")),
      pool_(4096, scope_.scope("pool")) {
  const std::size_t n = std::min<std::size_t>(host_count, device.port_count());
  hosts_.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    hosts_.emplace_back(p, p, link, sim, device, &rng_, &pool_,
                        scope_.scope("host" + std::to_string(p)));
  }
  device.set_tx_handler([this](packet::PortId port, packet::Packet pkt) {
    if (port < hosts_.size()) {
      hosts_[port].deliver_from_switch(std::move(pkt));
    } else if (default_tx_) {
      default_tx_(port, std::move(pkt));
    } else {
      pool_.release(std::move(pkt));
    }
  });
}

void Fabric::set_tracker(coflow::CoflowTracker* tracker) {
  for (Host& h : hosts_) h.set_tracker(tracker);
}

void Fabric::set_trace_sampler(const sim::TraceSampler* sampler) {
  for (Host& h : hosts_) h.set_trace_sampler(sampler);
}

}  // namespace adcp::net

#include "workload/rack_coflow.hpp"

#include <cassert>

#include "packet/headers.hpp"
#include "topo/network.hpp"

namespace adcp::workload {

namespace {

/// The first params.senders host indices, skipping the sink.
std::vector<std::uint32_t> incast_senders(const RackIncastParams& params,
                                          std::size_t host_count) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < host_count && out.size() < params.senders; ++i) {
    if (i != params.sink) out.push_back(i);
  }
  return out;
}

}  // namespace

std::vector<RackHost> rack_hosts(topo::Network& net) {
  std::vector<RackHost> hosts;
  hosts.reserve(net.host_count());
  for (std::size_t i = 0; i < net.host_count(); ++i) {
    hosts.push_back({&net.host(i), net.ip_of(i)});
  }
  return hosts;
}

coflow::CoflowDescriptor rack_incast_descriptor(const RackIncastParams& params,
                                                std::size_t host_count) {
  coflow::CoflowDescriptor d;
  d.id = params.coflow_id;
  d.name = "rack_incast";
  d.pattern = coflow::Pattern::kManyToOne;
  const std::uint64_t pkt_bytes = packet::inc_packet_bytes(params.elems_per_packet);
  const auto senders = incast_senders(params, host_count);
  for (std::size_t slot = 0; slot < senders.size(); ++slot) {
    coflow::FlowSpec f;
    f.id = params.flow_base + slot;
    f.src = senders[slot];
    f.dst = params.sink;
    f.packets = params.packets_per_sender;
    f.bytes = f.packets * pkt_bytes;
    d.flows.push_back(f);
  }
  return d;
}

void start_rack_incast(std::span<RackHost> hosts, const RackIncastParams& params,
                       sim::Time when) {
  assert(params.sink < hosts.size());
  const auto senders = incast_senders(params, hosts.size());
  for (std::size_t slot = 0; slot < senders.size(); ++slot) {
    const std::uint32_t src = senders[slot];
    packet::IncPacketSpec spec;
    spec.ip_src = hosts[src].ip;
    spec.ip_dst = hosts[params.sink].ip;
    spec.inc.opcode = packet::IncOpcode::kPlain;
    spec.inc.coflow_id = params.coflow_id;
    spec.inc.flow_id = static_cast<std::uint32_t>(params.flow_base + slot);
    spec.udp_src = rack_flow_udp_src(spec.inc.flow_id);
    spec.inc.worker_id = src;
    for (std::uint32_t s = 0; s < params.packets_per_sender; ++s) {
      spec.inc.seq = s;
      spec.inc.elements.clear();
      for (std::uint32_t e = 0; e < params.elems_per_packet; ++e) {
        spec.inc.elements.push_back({s * params.elems_per_packet + e, src});
      }
      hosts[src].host->send_inc(spec, when);
    }
  }
}

coflow::CoflowDescriptor RackAllReduce::reduce_descriptor() const {
  coflow::CoflowDescriptor d;
  d.id = params_.reduce_coflow;
  d.name = "rack_allreduce.reduce";
  d.pattern = coflow::Pattern::kManyToOne;
  const std::uint64_t pkt_bytes = packet::inc_packet_bytes(params_.elems_per_packet);
  for (std::size_t slot = 0; slot < params_.workers.size(); ++slot) {
    coflow::FlowSpec f;
    f.id = params_.flow_base + slot;
    f.src = params_.workers[slot];
    f.dst = params_.ps;
    f.packets = params_.packets_per_worker();
    f.bytes = f.packets * pkt_bytes;
    d.flows.push_back(f);
  }
  return d;
}

coflow::CoflowDescriptor RackAllReduce::broadcast_descriptor() const {
  coflow::CoflowDescriptor d;
  d.id = params_.bcast_coflow;
  d.name = "rack_allreduce.broadcast";
  d.pattern = coflow::Pattern::kOneToMany;
  const std::uint64_t pkt_bytes = packet::inc_packet_bytes(params_.elems_per_packet);
  for (std::size_t slot = 0; slot < params_.workers.size(); ++slot) {
    coflow::FlowSpec f;
    f.id = params_.flow_base + 1000 + slot;
    f.src = params_.ps;
    f.dst = params_.workers[slot];
    f.packets = params_.packets_per_worker();
    f.bytes = f.packets * pkt_bytes;
    d.flows.push_back(f);
  }
  return d;
}

void RackAllReduce::attach(std::span<RackHost> hosts, sim::Simulator& sim,
                           coflow::CoflowTracker* tracker) {
  assert(params_.ps < hosts.size());
  hosts_.assign(hosts.begin(), hosts.end());
  sim_ = &sim;
  tracker_ = tracker;

  // The PS notices reduce completion in the data path and fires the
  // broadcast from there — its timing is part of the measured CCT.
  hosts_[params_.ps].host->add_rx_callback(
      [this](net::Host&, const packet::Packet& pkt) {
        packet::IncHeader inc;
        if (!packet::decode_inc(pkt, inc)) return;
        if (inc.coflow_id != params_.reduce_coflow) return;
        ++reduce_received_;
        const std::uint64_t expected =
            static_cast<std::uint64_t>(params_.workers.size()) * params_.packets_per_worker();
        if (!broadcast_started_ && reduce_received_ >= expected) start_broadcast();
      });

  for (std::uint32_t w : params_.workers) {
    assert(w < hosts.size() && w != params_.ps);
    hosts_[w].host->add_rx_callback([this](net::Host&, const packet::Packet& pkt) {
      packet::IncHeader inc;
      if (packet::decode_inc(pkt, inc) && inc.coflow_id == params_.bcast_coflow) {
        bcast_received_.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
}

void RackAllReduce::start(sim::Time when) {
  assert(sim_ != nullptr && "attach() before start()");
  if (tracker_ != nullptr) tracker_->start(reduce_descriptor(), when);
  for (std::size_t slot = 0; slot < params_.workers.size(); ++slot) {
    const std::uint32_t w = params_.workers[slot];
    packet::IncPacketSpec spec;
    spec.ip_src = hosts_[w].ip;
    spec.ip_dst = hosts_[params_.ps].ip;
    spec.inc.opcode = packet::IncOpcode::kPlain;
    spec.inc.coflow_id = params_.reduce_coflow;
    spec.inc.flow_id = static_cast<std::uint32_t>(params_.flow_base + slot);
    spec.udp_src = rack_flow_udp_src(spec.inc.flow_id);
    spec.inc.worker_id = w;
    const std::uint32_t ppw = params_.packets_per_worker();
    for (std::uint32_t s = 0; s < ppw; ++s) {
      spec.inc.seq = s;
      spec.inc.elements.clear();
      for (std::uint32_t e = 0; e < params_.elems_per_packet; ++e) {
        const std::uint32_t idx = s * params_.elems_per_packet + e;
        if (idx >= params_.vector_len) break;
        spec.inc.elements.push_back({idx, w + 1});
      }
      hosts_[w].host->send_inc(spec, when);
    }
  }
}

void RackAllReduce::start_broadcast() {
  broadcast_started_ = true;
  if (tracker_ != nullptr) tracker_->start(broadcast_descriptor(), sim_->now());
  for (std::size_t slot = 0; slot < params_.workers.size(); ++slot) {
    const std::uint32_t w = params_.workers[slot];
    packet::IncPacketSpec spec;
    spec.ip_src = hosts_[params_.ps].ip;
    spec.ip_dst = hosts_[w].ip;
    spec.inc.opcode = packet::IncOpcode::kPlain;
    spec.inc.coflow_id = params_.bcast_coflow;
    spec.inc.flow_id = static_cast<std::uint32_t>(params_.flow_base + 1000 + slot);
    spec.udp_src = rack_flow_udp_src(spec.inc.flow_id);
    spec.inc.worker_id = params_.ps;
    const std::uint32_t ppw = params_.packets_per_worker();
    for (std::uint32_t s = 0; s < ppw; ++s) {
      spec.inc.seq = s;
      spec.inc.elements.clear();
      for (std::uint32_t e = 0; e < params_.elems_per_packet; ++e) {
        const std::uint32_t idx = s * params_.elems_per_packet + e;
        if (idx >= params_.vector_len) break;
        spec.inc.elements.push_back({idx, 0xa11});
      }
      hosts_[params_.ps].host->send_inc(spec, 0);
    }
  }
}

}  // namespace adcp::workload

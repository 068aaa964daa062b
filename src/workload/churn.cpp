#include "workload/churn.hpp"

#include <cassert>

#include "packet/headers.hpp"
#include "sim/random.hpp"

namespace adcp::workload {

ChurnQuery::ChurnQuery(ChurnParams params, topo::Network& net)
    : params_(std::move(params)),
      net_(&net),
      backing_ip_(net.ip_of(params_.backing_host)) {
  assert(params_.key_space > 0 && params_.key_space <= (1u << 24) &&
         "control keys are 24-bit on the wire");
  if (params_.client_hosts.empty()) {
    for (std::size_t g = 0; g < net.host_count(); ++g) {
      if (g != params_.backing_host) params_.client_hosts.push_back(g);
    }
  }

  clients_.reserve(params_.client_hosts.size());
  for (std::size_t i = 0; i < params_.client_hosts.size(); ++i) {
    Client c;
    c.host = params_.client_hosts[i];
    assert(c.host != params_.backing_host && "the backing host cannot be a client");
    c.ip = net.ip_of(c.host);
    c.flow = params_.flow_base + static_cast<std::uint32_t>(i);
    c.sim = &net.sim_of_host(c.host);
    c.rng = sim::Rng(sim::mix64(params_.seed ^ (0xc42bull + i)));
    c.zipf = sim::Zipf(params_.key_space, params_.zipf_skew);
    clients_.push_back(std::move(c));
  }

  for (Client& c : clients_) {
    Client* cp = &c;
    net_->host(c.host).add_rx_callback(
        [this, cp](net::Host&, const packet::Packet& pkt) {
          packet::IncHeader hdr;
          if (!packet::decode_inc(pkt, hdr)) return;
          if (hdr.flow_id != cp->flow) return;
          const bool hit = hdr.opcode == packet::IncOpcode::kChurnHit;
          if (!hit && hdr.opcode != packet::IncOpcode::kChurnMiss) return;
          const auto it = cp->outstanding.find(hdr.seq);
          if (it == cp->outstanding.end()) return;
          const double lat_ns =
              static_cast<double>(cp->sim->now() - it->second) / sim::kNanosecond;
          cp->outstanding.erase(it);
          if (hit) {
            ++cp->hits;
            cp->hit_latency_ns.record(lat_ns);
          } else {
            ++cp->misses;
            cp->miss_latency_ns.record(lat_ns);
          }
        });
  }
}

void ChurnQuery::start(sim::Time when) {
  // Stagger first sends across the interval so clients don't fire in
  // lockstep (the stagger is fixed by client index — deterministic).
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client* cp = &clients_[i];
    const sim::Time phase =
        params_.interval * static_cast<sim::Time>(i) /
        static_cast<sim::Time>(clients_.size());
    cp->sim->at(when + phase, [this, cp] { send_next(*cp); });
  }
}

void ChurnQuery::send_next(Client& c) {
  if (c.sent >= params_.queries_per_client) return;
  // The popularity offset is a pure function of this shard's clock, so a
  // mid-run shift needs no cross-shard coordination.
  if (params_.shift_period > 0) {
    c.zipf.set_offset(static_cast<std::size_t>(c.sim->now() / params_.shift_period) *
                      params_.shift_step);
  }
  const auto key = static_cast<std::uint32_t>(c.zipf.sample(c.rng));
  const std::uint32_t seq = c.sent++;
  packet::IncPacketSpec spec;
  spec.ip_src = c.ip;
  spec.ip_dst = backing_ip_;
  spec.inc.opcode = packet::IncOpcode::kChurnQuery;
  spec.inc.flow_id = c.flow;
  spec.inc.seq = seq;
  spec.inc.worker_id = key;
  net_->host(c.host).send_inc(spec);
  c.outstanding.emplace(seq, c.sim->now());
  Client* cp = &c;
  c.sim->at(c.sim->now() + params_.interval, [this, cp] { send_next(*cp); });
}

std::uint64_t ChurnQuery::hits() const {
  std::uint64_t n = 0;
  for (const Client& c : clients_) n += c.hits;
  return n;
}

std::uint64_t ChurnQuery::misses() const {
  std::uint64_t n = 0;
  for (const Client& c : clients_) n += c.misses;
  return n;
}

std::uint64_t ChurnQuery::sent() const {
  std::uint64_t n = 0;
  for (const Client& c : clients_) n += c.sent;
  return n;
}

std::uint64_t ChurnQuery::outstanding() const {
  std::uint64_t n = 0;
  for (const Client& c : clients_) n += c.outstanding.size();
  return n;
}

sim::Summary ChurnQuery::hit_latency_ns() const {
  sim::Summary out;
  for (const Client& c : clients_) out.merge(c.hit_latency_ns);
  return out;
}

sim::Summary ChurnQuery::miss_latency_ns() const {
  sim::Summary out;
  for (const Client& c : clients_) out.merge(c.miss_latency_ns);
  return out;
}

}  // namespace adcp::workload

#include "rtc/rtc_switch.hpp"

#include <algorithm>
#include <cassert>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "telem/tap.hpp"

namespace adcp::rtc {

namespace {
bool is_inc(const packet::Phv& phv) {
  return phv.get_or(packet::fields::kUdpDst, 0) == packet::kIncUdpPort;
}
}  // namespace

RtcSwitch::RtcSwitch(sim::Simulator& sim, const RtcConfig& config, sim::Scope scope)
    : sim_(&sim),
      config_(config),
      scope_(sim::resolve_scope(scope, own_metrics_, "rtc")),
      metrics_(scope_),
      spans_(scope_.span_recorder()),
      pool_(4096, scope_.scope("pool")),
      shared_(config.eager_state) {
  rx_free_.assign(config.port_count, 0);
  tx_free_.assign(config.port_count, 0);
  proc_free_.assign(config.processors, 0);
}

void RtcSwitch::load_program(RtcProgram program) {
  assert(program.run && "RtcProgram::run is mandatory");
  parse_graph_ = program.shared_parse
                     ? std::move(program.shared_parse)
                     : std::make_shared<const packet::ParseGraph>(std::move(program.parse));
  parser_.emplace(parse_graph_.get());
  deparser_ = program.shared_deparse
                  ? std::move(program.shared_deparse)
                  : std::make_shared<const packet::Deparser>(std::move(program.deparse));
  run_ = std::move(program.run);

  // Re-arm the fast path from scratch: load_program may be called again
  // over an already-programmed switch, and any previously memoized verdict
  // belongs to the replaced program.
  contract_ = std::move(program.fastpath);
  fast_.reset();
  if (config_.fastpath_entries > 0 && contract_.valid()) {
    fast_.emplace(config_.fastpath_entries);
  }
}

void RtcSwitch::set_multicast_group(std::uint32_t group, std::vector<packet::PortId> ports) {
  multicast_[group] = std::move(ports);
}

void RtcSwitch::inject(packet::PortId port, packet::Packet pkt) {
  assert(port < config_.port_count);
  assert(parser_ && "load_program() must be called before traffic");
  metrics_.rx_packets.add();
  metrics_.rx_bytes.add(pkt.size());
  pkt.meta.ingress_port = port;

  sim::Time& free = rx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  free = start + sim::serialization_time(pkt.size(), config_.port_gbps);
  spans_.span(sim::SpanKind::kRx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable {
    pkt.meta.arrival = sim_->now();  // fully received; enters the dispatcher
    if (dispatch_queue_.packets() >= config_.dispatch_queue_packets) {
      metrics_.queue_drops.add();
      spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                     static_cast<std::uint64_t>(sim::DropReason::kAdmission));
      if (tap_ != nullptr) tap_->on_drop(pkt, sim::DropReason::kAdmission, sim_->now());
      pool_.release(std::move(pkt));
      return;
    }
    // The dispatch queue plays the TM role here: stamp its depth for INT.
    if (tap_ != nullptr) {
      pkt.meta.set_telem_depth(dispatch_queue_.packets());
    }
    spans_.instant(sim::SpanKind::kTmEnqueue, pkt.meta.trace_id, sim_->now(),
                   dispatch_queue_.packets() + 1);
    dispatch_queue_.push(std::move(pkt));
    try_dispatch();
  });
}

bool RtcSwitch::try_fast_dispatch(packet::Packet& pkt, std::size_t proc,
                                  sim::Time queued_at) {
  fast_->sync(contract_);
  fastpath::WireView w;
  if (!fastpath::inspect(pkt, contract_.parse_max_elems, w)) return false;
  if (w.ttl < 2) return false;  // the slow path owns the TTL-expiry drop
  const bool query =
      contract_.store != nullptr &&
      w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
  fastpath::FlowCache::Entry* e = fast_->probe(w, pkt.meta.ingress_port, query);
  if (e == nullptr) {
    if (config_.fastpath_miss_spans) {
      spans_.instant(sim::SpanKind::kFastpathMiss, pkt.meta.trace_id, sim_->now(),
                     proc);
    }
    return false;
  }
  // Store-dependent behavior runs live, at the same event the slow path
  // would have run it in.
  fastpath::Patch patch = fastpath::Patch::kForward;
  packet::PortId egress = e->forward_port;
  if (query) {
    std::uint32_t value = 0;
    if (contract_.store->lookup(w.worker_id, value) ==
        mat::VersionedStore::Lookup::kHit) {
      patch = fastpath::Patch::kServed;
      egress = e->served_port;
    }
  }
  const sim::Time busy = (e->timing.work + config_.dispatch_cycles) *
                         sim::period_from_ghz(config_.clock_ghz);
  proc_free_[proc] = sim_->now() + busy;
  spans_.span(sim::SpanKind::kIngress, pkt.meta.trace_id, sim_->now(), proc_free_[proc],
              proc, e->timing.work);
  FastSlot* f = fast_slots_.acquire();
  f->pkt = std::move(pkt);
  f->wire = w;
  f->egress = egress;
  f->patch = patch;
  f->queued_at = queued_at;
  sim_->at(proc_free_[proc], [this, f] {
    finish_fast(f);
    try_dispatch();
  });
  return true;
}

void RtcSwitch::finish_fast(FastSlot* f) {
  metrics_.latency.record(static_cast<double>(sim_->now() - f->queued_at));
  packet::Packet out = fastpath::copy_patch(pool_, std::move(f->pkt), f->wire, f->patch);
  out.meta.egress_port = f->egress;
  fast_slots_.release(f);
  transmit(std::move(out));
}

void RtcSwitch::transmit(packet::Packet pkt) {
  // The port rides in the packet metadata: {this, Packet} fills the inline
  // callback capacity exactly, so one more captured word would heap-spill.
  const packet::PortId port = pkt.meta.egress_port;
  sim::Time& free = tx_free_[port];
  const sim::Time start = std::max(sim_->now(), free);
  // Tap before sizing the TX window (it may append INT trailer bytes).
  if (tap_ != nullptr) tap_->at_tx(pkt, start, port);
  free = start + sim::serialization_time(pkt.size(), config_.port_gbps);
  spans_.span(sim::SpanKind::kTx, pkt.meta.trace_id, start, free, port, pkt.size());
  sim_->at(free, [this, pkt = std::move(pkt)]() mutable {
    const packet::PortId port = pkt.meta.egress_port;
    metrics_.tx_packets.add();
    metrics_.tx_bytes.add(pkt.size());
    if (first_tx_ == 0) first_tx_ = sim_->now();
    last_tx_ = sim_->now();
    if (tx_handler_) tx_handler_(port, std::move(pkt));
  });
}

void RtcSwitch::fill_fastpath(const packet::Packet& original, const packet::Phv& phv,
                              std::uint64_t work, packet::PortId egress) {
  fastpath::WireView w;
  if (!fastpath::inspect(original, contract_.parse_max_elems, w)) return;
  if (w.ttl < 2) return;
  const bool query =
      contract_.store != nullptr &&
      w.opcode == static_cast<std::uint8_t>(packet::IncOpcode::kChurnQuery);
  // Precompute both churn branches; memoize only if the contract's route
  // reproduces the verdict the program actually emitted for this packet.
  const packet::PortId forward =
      contract_.route(w.ip_dst, w.ip_src, w.udp_src, w.udp_dst);
  packet::PortId served = forward;
  bool served_branch = false;
  if (query) {
    served = contract_.route(w.ip_src, w.ip_dst, w.udp_src, w.udp_dst);
    served_branch = phv.get_or(packet::fields::kIncOpcode, 0) ==
                    static_cast<std::uint64_t>(packet::IncOpcode::kChurnHit);
  }
  if ((served_branch ? served : forward) != egress) return;
  fast_->fill(w, original.meta.ingress_port, query, forward, served, {0, 1, 0, work});
}

void RtcSwitch::try_dispatch() {
  while (!dispatch_queue_.empty()) {
    const auto it = std::min_element(proc_free_.begin(), proc_free_.end());
    if (*it > sim_->now()) {
      // Every processor is busy; wake when the earliest frees up.
      if (!dispatch_pending_) {
        dispatch_pending_ = true;
        sim_->at(*it, [this] {
          dispatch_pending_ = false;
          try_dispatch();
        });
      }
      return;
    }

    packet::Packet pkt = *dispatch_queue_.pop();
    const sim::Time queued_at = pkt.meta.arrival;
    spans_.span(sim::SpanKind::kTmQueue, pkt.meta.trace_id, queued_at, sim_->now());
    if (fast_ && try_fast_dispatch(
                     pkt, static_cast<std::size_t>(it - proc_free_.begin()), queued_at)) {
      continue;
    }
    TransitSlot* t = transit_.acquire();
    parser_->parse_into(pkt, t->pr);
    if (!t->pr.accepted) {
      metrics_.parse_drops.add();
      spans_.instant(sim::SpanKind::kDrop, pkt.meta.trace_id, sim_->now(),
                     static_cast<std::uint64_t>(sim::DropReason::kParse));
      if (tap_ != nullptr) tap_->on_drop(pkt, sim::DropReason::kParse, sim_->now());
      pool_.release(std::move(pkt));
      transit_.release(t);
      continue;
    }

    const std::uint64_t work = run_(t->pr.phv, shared_, config_);
    const sim::Time busy = (work + config_.dispatch_cycles) *
                           sim::period_from_ghz(config_.clock_ghz);
    *it = sim_->now() + busy;
    spans_.span(sim::SpanKind::kIngress, pkt.meta.trace_id, sim_->now(), *it,
                static_cast<std::uint64_t>(it - proc_free_.begin()), work);
    t->pkt = std::move(pkt);
    t->queued_at = queued_at;
    t->work = work;
    sim_->at(*it, [this, t] {
      finish(t);
      try_dispatch();
    });
  }
}

void RtcSwitch::finish(TransitSlot* t) {
  metrics_.latency.record(static_cast<double>(sim_->now() - t->queued_at));
  const packet::Phv& phv = t->pr.phv;
  if (phv.get_or(packet::fields::kMetaDrop, 0) != 0) {
    metrics_.program_drops.add();
    spans_.instant(sim::SpanKind::kDrop, t->pkt.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kProgram));
    if (tap_ != nullptr) tap_->on_drop(t->pkt, sim::DropReason::kProgram, sim_->now());
    pool_.release(std::move(t->pkt));
    transit_.release(t);
    return;
  }
  const std::uint64_t group = phv.get_or(packet::fields::kMetaMulticastGroup, 0);
  const std::uint64_t egress_field =
      phv.get_or(packet::fields::kMetaEgressPort, packet::kInvalidPort);
  // Memoize unicast forward verdicts while the original bytes are intact.
  if (fast_ && group == 0 && egress_field < config_.port_count) {
    fill_fastpath(t->pkt, phv, t->work, static_cast<packet::PortId>(egress_field));
  }
  packet::Packet out;
  if (is_inc(phv)) {
    out = pool_.acquire();
    deparser_->deparse_into(phv, t->pkt, t->pr.consumed, out);
    pool_.release(std::move(t->pkt));
  } else {
    out = std::move(t->pkt);
  }
  transit_.release(t);

  if (group != 0) {
    const auto it = multicast_.find(static_cast<std::uint32_t>(group));
    if (it == multicast_.end() || it->second.empty()) {
      metrics_.no_route_drops.add();
      spans_.instant(sim::SpanKind::kDrop, out.meta.trace_id, sim_->now(),
                     static_cast<std::uint64_t>(sim::DropReason::kNoRoute));
      if (tap_ != nullptr) tap_->on_drop(out, sim::DropReason::kNoRoute, sim_->now());
      pool_.release(std::move(out));
      return;
    }
    const std::vector<packet::PortId>& ports = it->second;
    for (const packet::PortId port : ports) {
      packet::Packet copy = ports.size() == 1 ? std::move(out) : out;
      copy.meta.egress_port = port;
      transmit(std::move(copy));
    }
    return;
  }
  if (egress_field >= config_.port_count) {
    metrics_.no_route_drops.add();
    spans_.instant(sim::SpanKind::kDrop, out.meta.trace_id, sim_->now(),
                   static_cast<std::uint64_t>(sim::DropReason::kNoRoute));
    if (tap_ != nullptr) tap_->on_drop(out, sim::DropReason::kNoRoute, sim_->now());
    pool_.release(std::move(out));
    return;
  }
  out.meta.egress_port = static_cast<packet::PortId>(egress_field);
  transmit(std::move(out));
}

double RtcSwitch::achieved_tx_gbps() const {
  if (last_tx_ <= first_tx_) return 0.0;
  return static_cast<double>(metrics_.tx_bytes.value()) * 8.0 * 1000.0 /
         static_cast<double>(last_tx_ - first_tx_);
}

}  // namespace adcp::rtc

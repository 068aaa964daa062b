#include "rtc/rtc_switch.hpp"

#include <algorithm>
#include <cassert>

namespace adcp::rtc {

RtcSwitch::RtcSwitch(sim::Simulator& sim, const RtcConfig& config, sim::Scope scope)
    : Chassis(sim, scope, "rtc", config.port_count, config.port_gbps,
              config.fastpath_entries),
      config_(config),
      queue_drops_(scope_.counter("drops.dispatch_queue")),
      latency_(scope_.histogram("latency.residence_ps")) {
  proc_free_.assign(config.processors, 0);
}

void RtcSwitch::load_program(RtcProgram program) {
  assert(program.run && "RtcProgram::run is mandatory");
  install(program);
  run_ = std::move(program.run);
}

void RtcSwitch::on_rx(packet::Packet pkt) {
  pkt.meta.arrival = sim_->now();  // fully received; enters the dispatcher
  if (dispatch_queue_.packets() >= config_.dispatch_queue_packets) {
    drop(std::move(pkt), sim::DropReason::kAdmission, queue_drops_);
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

    // meta.arrival is the dispatch-queue entry time (set by on_rx) until
    // the processor finishes; residence time is measured from it.
    packet::Packet pkt = *dispatch_queue_.pop();
    const auto proc = static_cast<std::uint64_t>(it - proc_free_.begin());
    const sim::Time period = sim::period_from_ghz(config_.clock_ghz);
    spans_.span(sim::SpanKind::kTmQueue, pkt.meta.trace_id, pkt.meta.arrival, sim_->now());
    // The processor is the verdict site: a fast-path hit charges the
    // memoized cycle count instead of running the program.
    if (FastSlot* f = probe(pkt)) {
      *it = sim_->now() + (f->timing.work + config_.dispatch_cycles) * period;
      spans_.span(sim::SpanKind::kIngress, f->pkt.meta.trace_id, sim_->now(), *it, proc,
                  f->timing.work);
      sim_->at(*it, [this, f] {
        latency_.record(static_cast<double>(sim_->now() - f->pkt.meta.arrival));
        forward(unpark(f));
        try_dispatch();
      });
      continue;
    }
    TransitSlot* t = parse(std::move(pkt));
    if (t == nullptr) continue;

    const std::uint64_t work = run_(t->pr.phv, shared_, config_);
    *it = sim_->now() + (work + config_.dispatch_cycles) * period;
    spans_.span(sim::SpanKind::kIngress, t->pkt.meta.trace_id, sim_->now(), *it, proc, work);
    t->timing = {0, 1, 0, work};
    sim_->at(*it, [this, t] {
      latency_.record(static_cast<double>(sim_->now() - t->pkt.meta.arrival));
      resolve(t);
      try_dispatch();
    });
  }
}

}  // namespace adcp::rtc

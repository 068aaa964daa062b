// End hosts: paced senders and measuring sinks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coflow/coflow.hpp"
#include "coflow/tracker.hpp"
#include "net/device.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"
#include "packet/headers.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace adcp::net {

/// Registry-backed per-host counters, resolved once at construction.
struct HostMetrics {
  explicit HostMetrics(const sim::Scope& s)
      : tx_packets(s.counter("tx.packets")),
        tx_bytes(s.counter("tx.bytes")),
        rx_packets(s.counter("rx.packets")),
        rx_bytes(s.counter("rx.bytes")),
        rx_goodput_bytes(s.counter("rx.goodput_bytes")),
        rx_reordered(s.counter("rx.reordered")),
        rx_ecn_marked(s.counter("rx.ecn_marked")),
        link_drops(s.counter("drops.link")) {}

  sim::Counter& tx_packets;
  sim::Counter& tx_bytes;
  sim::Counter& rx_packets;
  sim::Counter& rx_bytes;
  sim::Counter& rx_goodput_bytes;
  sim::Counter& rx_reordered;
  sim::Counter& rx_ecn_marked;
  sim::Counter& link_drops;
};

/// A server attached to one switch port. Sends packets paced at its link
/// rate and measures what it receives (bytes, packets, per-flow ordering,
/// coflow completion via an optional shared tracker).
class Host {
 public:
  /// Optional application hook invoked on every received packet.
  using RxCallback = std::function<void(Host&, const packet::Packet&)>;

  /// `rng` is the loss stream both directions of the link draw from when
  /// the link is lossy. `pool`, when given, recycles delivered/lost packets
  /// and feeds send_inc(), making steady-state host traffic
  /// allocation-free. `scope` names this host in a shared MetricRegistry
  /// (the Fabric passes "net.host<i>"); detached falls back to a private
  /// registry.
  Host(coflow::HostId id, packet::PortId port, Link link, sim::Simulator& sim,
       SwitchDevice& device, sim::Rng* rng = nullptr, packet::Pool* pool = nullptr,
       sim::Scope scope = {})
      : id_(id), port_(port), device_(&device), pool_(pool),
        scope_(sim::resolve_scope(scope, own_metrics_, "host")), metrics_(scope_),
        spans_(scope_.span_recorder()),
        up_{.link = link, .sim = &sim, .rng = rng, .drops = &metrics_.link_drops,
            .spans = spans_, .drop_pool = pool},
        down_{up_} {}

  /// Queues `pkt` for transmission no earlier than `earliest`; the NIC
  /// serializes packets back to back at the link rate. Returns the time the
  /// packet's first bit enters the switch port.
  sim::Time send(packet::Packet pkt, sim::Time earliest = 0);

  /// Convenience: builds an INC packet from `spec` and sends it.
  sim::Time send_inc(const packet::IncPacketSpec& spec, sim::Time earliest = 0);

  /// Called by the fabric when the switch finished transmitting to us, on
  /// the switch's simulator: draws the downlink's loss lottery and accounts
  /// the packet on this host's own simulator one propagation delay later.
  void deliver_from_switch(packet::Packet pkt);

  /// Puts a PDES cut across the access link: the uplink delivers through
  /// `up` (this host's shard -> the switch's), and the downlink runs on
  /// `switch_sim` and delivers through `down`. The link must be lossless,
  /// since its loss stream lives on this host's shard.
  void cut(sim::Mailbox& up, sim::Simulator& switch_sim, sim::Mailbox& down);

  /// Clears per-run transient state (NIC pacing horizon, last-RX time and
  /// the per-flow highest-sequence map) so repeated runs inside one process
  /// don't inherit reorder state. Cumulative counters are left untouched.
  void reset() {
    nic_free_ = 0;
    last_rx_ = 0;
    highest_seq_.clear();
  }

  /// Replaces all RX callbacks with `cb`.
  void set_rx_callback(RxCallback cb) {
    rx_callbacks_.clear();
    rx_callbacks_.push_back(std::move(cb));
  }

  /// Adds an RX callback alongside existing ones (multi-tenant hosts: each
  /// application registers its own sink).
  void add_rx_callback(RxCallback cb) { rx_callbacks_.push_back(std::move(cb)); }

  /// Attaches the fabric-wide head sampler; send_inc() stamps a trace id
  /// on the packets of sampled flows. Null (the default) disables stamping.
  void set_trace_sampler(const sim::TraceSampler* sampler) { sampler_ = sampler; }
  /// Attaches a (shared) coflow tracker that receives delivery events.
  void set_tracker(coflow::CoflowTracker* tracker) { tracker_ = tracker; }

  [[nodiscard]] coflow::HostId id() const { return id_; }
  [[nodiscard]] packet::PortId port() const { return port_; }
  [[nodiscard]] const Link& link() const { return up_.link; }

  [[nodiscard]] std::uint64_t rx_packets() const { return metrics_.rx_packets.value(); }
  [[nodiscard]] std::uint64_t rx_bytes() const { return metrics_.rx_bytes.value(); }
  [[nodiscard]] std::uint64_t tx_packets() const { return metrics_.tx_packets.value(); }
  [[nodiscard]] std::uint64_t tx_bytes() const { return metrics_.tx_bytes.value(); }
  /// INC element payload bytes received (goodput numerator).
  [[nodiscard]] std::uint64_t rx_goodput_bytes() const {
    return metrics_.rx_goodput_bytes.value();
  }
  /// Packets that arrived with a sequence number lower than an already
  /// delivered one of the same flow (reordering metric for the TM1 merge
  /// ablation).
  [[nodiscard]] std::uint64_t rx_reordered() const { return metrics_.rx_reordered.value(); }
  /// Packets delivered with the IP ECN field marked CE (congestion).
  [[nodiscard]] std::uint64_t rx_ecn_marked() const { return metrics_.rx_ecn_marked.value(); }
  /// Packets lost on this host's links (either direction).
  [[nodiscard]] std::uint64_t link_drops() const { return metrics_.link_drops.value(); }
  [[nodiscard]] sim::Time last_rx_time() const { return last_rx_; }

 private:
  /// Receive-side accounting, run at delivery time on this host's own
  /// simulator (the propagation-delayed tail of deliver_from_switch; the
  /// span begin rides in pkt.meta.trace_mark).
  void finish_rx(packet::Packet pkt);

  coflow::HostId id_;
  packet::PortId port_;
  SwitchDevice* device_;
  packet::Pool* pool_ = nullptr;  // not owned; shared by the fabric
  std::vector<RxCallback> rx_callbacks_;
  coflow::CoflowTracker* tracker_ = nullptr;

  sim::Time nic_free_ = 0;
  // Declared before scope_/metrics_ (fallback registry must exist first).
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  HostMetrics metrics_;
  sim::SpanRecorder spans_;
  // Declared after metrics_/spans_, which their initializers read. up_.sim
  // is this host's own simulator in every build.
  Wire up_;    // host -> switch
  Wire down_;  // switch -> host
  const sim::TraceSampler* sampler_ = nullptr;  // not owned; null = no stamping
  sim::Time last_rx_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> highest_seq_;  // flow -> seq
};

/// Wires hosts to the low ports of a switch and dispatches TX packets back
/// to the owning host; TX on ports without a host (trunk uplinks in a
/// multi-switch topology) goes to an optional default handler.
class Fabric {
 public:
  /// host_count sentinel: one host on every switch port.
  static constexpr std::size_t kAllPorts = static_cast<std::size_t>(-1);

  /// Creates hosts on ports [0, host_count), host i on port i (kAllPorts
  /// covers the whole switch, preserving the single-switch behavior).
  /// `seed` drives the link-loss lottery when the link has a nonzero
  /// loss_rate. `scope` names the fabric in a shared MetricRegistry (hosts
  /// register as "<scope>.host<i>", the pool as "<scope>.pool"); detached
  /// falls back to a private registry under "net".
  Fabric(sim::Simulator& sim, SwitchDevice& device, Link link,
         std::uint64_t seed = 0xfab21c, sim::Scope scope = {},
         std::size_t host_count = kAllPorts);

  Host& host(std::size_t i) { return hosts_.at(i); }
  [[nodiscard]] std::size_t size() const { return hosts_.size(); }

  /// Installs `tracker` on every host.
  void set_tracker(coflow::CoflowTracker* tracker);

  /// Installs the head sampler on every host (see Host::set_trace_sampler).
  void set_trace_sampler(const sim::TraceSampler* sampler);

  /// Receives TX packets on ports that carry no host (a topology builder
  /// points this at its trunk dispatch). Without a handler such packets are
  /// recycled into the pool.
  void set_default_tx(TxHandler handler) { default_tx_ = std::move(handler); }

  std::vector<Host>& hosts() { return hosts_; }

  /// The pool all hosts recycle packets through (one per fabric).
  packet::Pool& pool() { return pool_; }

  /// The registry the fabric's hosts and pool report into (shared when an
  /// attached scope was passed, private otherwise).
  [[nodiscard]] sim::MetricRegistry& metrics() { return *scope_.registry(); }

 private:
  sim::Rng rng_;
  // Declared before scope_/pool_/hosts_, which register through it.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  sim::Scope scope_;
  packet::Pool pool_;
  std::vector<Host> hosts_;
  TxHandler default_tx_;
};

}  // namespace adcp::net

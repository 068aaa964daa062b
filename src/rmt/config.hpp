// RMT switch configuration and its structural properties.
//
// The structural queries (`pipeline_of_port`, `can_converge_ingress`,
// `reachable_ports`) are the paper's Fig.-2 restrictions made executable:
// a coflow's member flows meet in an ingress pipeline only if their ports
// are physically attached to it, and egress-pipeline results can only exit
// through that pipeline's ports.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "packet/packet.hpp"
#include "pipeline/stage.hpp"

namespace adcp::rmt {

/// Static shape of an RMT switch (Fig. 1 of the paper).
struct RmtConfig {
  std::uint32_t port_count = 16;
  double port_gbps = 100.0;
  /// Ingress pipelines (the switch has the same number of egress pipelines).
  std::uint32_t pipeline_count = 4;
  std::uint32_t stages_per_pipeline = 12;
  double clock_ghz = 1.25;
  /// Packet size the design assumes when sizing the clock (Table 2).
  /// Smaller packets may arrive; the pipelines then fall below line rate —
  /// which is precisely the scalability issue the paper raises.
  std::uint32_t design_min_packet_bytes = 160;
  pipeline::StageConfig stage;
  std::uint64_t tm_buffer_bytes = 32ull << 20;
  double tm_alpha = 8.0;
  /// ECN CE-mark threshold per egress queue (0 disables).
  std::uint64_t ecn_threshold_bytes = 0;
  /// Mirror the TM buffer's peak occupancy into a "buffer.watermark_bytes"
  /// watermark gauge (telemetry); off by default so snapshots stay
  /// byte-identical to pre-telemetry builds.
  bool tm_track_watermark = false;
  /// Recirculation bandwidth per pipeline, as a fraction of one port.
  double recirc_gbps = 100.0;
  /// Safety bound on recirculation passes before the switch drops.
  std::uint32_t max_recirculations = 16;
  /// Flow fast-path cache entries (rounded up to a power of two); 0
  /// disables the fast path entirely. Only armed when the installed
  /// program also supplies a fastpath contract (DESIGN.md §13).
  std::uint32_t fastpath_entries = 0;

  [[nodiscard]] std::uint32_t ports_per_pipeline() const {
    assert(pipeline_count > 0 && port_count % pipeline_count == 0);
    return port_count / pipeline_count;
  }

  /// The ingress (== egress) pipeline physically attached to `port`.
  [[nodiscard]] std::uint32_t pipeline_of_port(packet::PortId port) const {
    return port / ports_per_pipeline();
  }

  /// True iff all `ports` feed the same ingress pipeline — the only case
  /// where RMT can colocate a coflow's data on the ingress path (Fig. 2).
  [[nodiscard]] bool can_converge_ingress(std::span<const packet::PortId> ports) const {
    if (ports.empty()) return true;
    const std::uint32_t pipe = pipeline_of_port(ports.front());
    for (const packet::PortId p : ports) {
      if (pipeline_of_port(p) != pipe) return false;
    }
    return true;
  }

  /// Ports reachable from egress pipeline `pipe` — results computed there
  /// can only leave through these (Fig. 2).
  [[nodiscard]] std::vector<packet::PortId> reachable_ports(std::uint32_t pipe) const {
    std::vector<packet::PortId> out;
    const std::uint32_t per = ports_per_pipeline();
    out.reserve(per);
    for (std::uint32_t i = 0; i < per; ++i) out.push_back(pipe * per + i);
    return out;
  }

  /// Packets per second one pipeline must sustain for line rate at the
  /// design packet size (plus 20 B Ethernet overhead: preamble + IPG).
  [[nodiscard]] double required_pps() const {
    const double bytes_on_wire = static_cast<double>(design_min_packet_bytes) + 20.0;
    return static_cast<double>(ports_per_pipeline()) * port_gbps * 1e9 /
           (bytes_on_wire * 8.0);
  }

  /// Clock (GHz) needed to retire one packet per cycle at `required_pps`.
  [[nodiscard]] double required_clock_ghz() const { return required_pps() / 1e9; }

  /// Returns a human-readable problem description, or empty when the
  /// configuration is consistent.
  [[nodiscard]] std::string validate() const {
    if (port_count == 0) return "port_count must be > 0";
    if (pipeline_count == 0) return "pipeline_count must be > 0";
    if (port_count % pipeline_count != 0) {
      return "port_count must divide evenly into pipeline_count port groups";
    }
    if (clock_ghz <= 0.0 || port_gbps <= 0.0) return "clock and port rate must be positive";
    if (stages_per_pipeline == 0) return "stages_per_pipeline must be > 0";
    return {};
  }
};

}  // namespace adcp::rmt

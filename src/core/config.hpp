// ADCP switch configuration (the proposed architecture, paper Fig. 4).
//
// Three structural deltas versus RMT:
//  1. ports are DE-multiplexed 1:m into dedicated edge pipelines (§3.3), so
//     edge pipelines clock at a fraction of the port packet rate;
//  2. a second traffic manager creates a bank of *central* pipelines — the
//     global partitioned area (§3.1) — whose placement is application
//     defined and whose results can exit through ANY port;
//  3. central stages carry the array engine (§3.2) for batch matching.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "mat/array_engine.hpp"
#include "pipeline/stage.hpp"

namespace adcp::core {

/// Static shape of an ADCP switch.
struct AdcpConfig {
  std::uint32_t port_count = 16;
  double port_gbps = 100.0;
  /// m: edge pipelines per port (paper Table 3 uses 1:2).
  std::uint32_t demux_factor = 2;
  std::uint32_t edge_stages = 12;
  /// Edge pipelines see 1/m of the port's packet rate, so they may clock
  /// slower than an RMT pipeline would (the whole point of §3.3).
  double edge_clock_ghz = 0.8;
  std::uint32_t central_pipeline_count = 4;
  std::uint32_t central_stages = 12;
  double central_clock_ghz = 1.0;
  pipeline::StageConfig edge_stage;
  pipeline::StageConfig central_stage;  ///< usually carries an array engine
  std::uint64_t tm1_buffer_bytes = 32ull << 20;
  double tm1_alpha = 8.0;
  std::uint64_t tm2_buffer_bytes = 32ull << 20;
  double tm2_alpha = 8.0;
  /// ECN CE-mark threshold per TM2 egress queue (0 disables).
  std::uint64_t ecn_threshold_bytes = 0;
  /// Mirror both TMs' peak buffer occupancy into "buffer.watermark_bytes"
  /// watermark gauges (telemetry); off by default so snapshots stay
  /// byte-identical to pre-telemetry builds.
  bool tm_track_watermark = false;
  /// Flow fast-path verdict cache entries (0 disables; rounded up to a
  /// power of two). Armed only when the installed program also provides a
  /// fastpath contract (DESIGN.md §13).
  std::uint32_t fastpath_entries = 0;

  AdcpConfig() {
    // Central stages default to an array engine (§3.2); edge stages do not.
    central_stage.array = mat::ArrayEngineConfig{};
  }

  /// Total edge pipelines per direction (ingress or egress).
  [[nodiscard]] std::uint32_t edge_pipeline_count() const {
    return port_count * demux_factor;
  }

  /// Global index of the edge pipeline `sub` of `port`.
  [[nodiscard]] std::uint32_t edge_pipe_index(std::uint32_t port, std::uint32_t sub) const {
    assert(sub < demux_factor);
    return port * demux_factor + sub;
  }

  /// Port an edge pipeline belongs to.
  [[nodiscard]] std::uint32_t port_of_edge_pipe(std::uint32_t pipe) const {
    return pipe / demux_factor;
  }

  /// Packet rate one edge pipeline must sustain for line rate at
  /// `packet_bytes` (+20 B Ethernet preamble/IPG), given the 1:m demux.
  [[nodiscard]] double edge_required_pps(std::uint32_t packet_bytes) const {
    const double wire = static_cast<double>(packet_bytes) + 20.0;
    return port_gbps * 1e9 / (wire * 8.0) / static_cast<double>(demux_factor);
  }

  /// Clock (GHz) an edge pipeline needs for line rate at `packet_bytes`.
  [[nodiscard]] double edge_required_clock_ghz(std::uint32_t packet_bytes) const {
    return edge_required_pps(packet_bytes) / 1e9;
  }

  /// Returns a human-readable problem description, or empty when the
  /// configuration is consistent.
  [[nodiscard]] std::string validate() const {
    if (port_count == 0) return "port_count must be > 0";
    if (demux_factor == 0) return "demux_factor must be > 0 (1 disables demux)";
    if (central_pipeline_count == 0) return "central_pipeline_count must be > 0";
    if (edge_clock_ghz <= 0.0 || central_clock_ghz <= 0.0 || port_gbps <= 0.0) {
      return "clocks and port rate must be positive";
    }
    if (edge_stages == 0 || central_stages == 0) return "stage counts must be > 0";
    if (central_stage.array && central_stage.array->lane_width == 0) {
      return "array engine lane_width must be > 0";
    }
    return {};
  }
};

}  // namespace adcp::core

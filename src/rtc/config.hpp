// Run-to-completion switch configuration.
//
// The paper's §1 design-space survey: software switches (BMv2) "replace
// the line rate goal with a run-to-completion discipline, which holds a
// packet in the switch until an arbitrary length computation is
// completed", and Trio "replaces the notion of processing pipelines with
// threads. This approach still compromises line rate". This module models
// that whole class: a pool of processors over SHARED memory (so coflows
// converge trivially, like ADCP's global area) whose throughput is
// processors x clock / per-packet work — with no line-rate guarantee.
#pragma once

#include <cstdint>

namespace adcp::rtc {

/// Static shape of a run-to-completion switch.
struct RtcConfig {
  std::uint32_t port_count = 16;
  double port_gbps = 100.0;
  /// Worker processors (Trio-style packet-processing engines / BMv2
  /// threads).
  std::uint32_t processors = 16;
  double clock_ghz = 1.0;
  /// Fixed cycles to dispatch a packet to a processor and reclaim it.
  std::uint32_t dispatch_cycles = 30;
  /// Cycles per access to the shared memory (tables/registers); shared
  /// memory is what buys the coflow-friendliness, and this is its price.
  std::uint32_t memory_access_cycles = 8;
  /// Packets the central dispatch queue may hold before tail-dropping.
  std::size_t dispatch_queue_packets = 16'384;
  /// Flow fast-path verdict cache entries (0 disables; rounded up to a
  /// power of two). Armed only when the installed program also provides a
  /// fastpath contract (DESIGN.md §13).
  std::uint32_t fastpath_entries = 0;

  /// Peak packet rate of the processor pool for a program costing
  /// `cycles_per_packet` (dispatch included).
  [[nodiscard]] double peak_pps(double cycles_per_packet) const {
    return static_cast<double>(processors) * clock_ghz * 1e9 /
           (cycles_per_packet + dispatch_cycles);
  }
};

}  // namespace adcp::rtc

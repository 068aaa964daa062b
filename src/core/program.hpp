// Program model for the ADCP switch — the coflow-processor API.
//
// An ADCP program extends the RMT program model with exactly the paper's
// additions: an array-capable parse, an application-defined PLACEMENT for
// the first traffic manager (how coflow data spreads over the global
// partitioned area), an optional application scheduler for TM1 (e.g. the
// order-preserving merge), a per-port demux rule (§3.3), and programs for
// the central pipelines where coflow state lives.
#pragma once

#include <functional>
#include <memory>

#include "fastpath/fastpath.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "pipeline/pipeline.hpp"
#include "tm/placement.hpp"
#include "tm/traffic_manager.hpp"

namespace adcp::core {

/// Lane width of the default ADCP parse graph: ADCP parsers extract arrays
/// (paper §3.2). Fast-path admission mirrors the parser's lane-budget
/// rejection with it.
inline constexpr std::size_t kAdcpParseLanes = 16;

/// Configures one pipeline's stages at install time.
using PipelineSetup = std::function<void(pipeline::Pipeline& pipe, std::uint32_t index)>;

/// Chooses which of the port's m edge pipelines takes this packet (§3.3:
/// "an application must define how to separate the packet contents into m
/// pipelines"). Return value is taken modulo m. Default: per-port
/// round-robin.
using DemuxFn = std::function<std::uint32_t(const packet::Packet&)>;

/// A complete ADCP data-plane program.
struct AdcpProgram {
  /// The parse graph and deparser the switch installs. By default every
  /// ADCP switch shares the process-wide standard pair.
  std::shared_ptr<const packet::ParseGraph> shared_parse =
      packet::shared_standard_parse_graph<kAdcpParseLanes>();
  std::shared_ptr<const packet::Deparser> shared_deparse = packet::shared_standard_deparser();

  PipelineSetup setup_ingress;  ///< edge ingress pipelines
  PipelineSetup setup_central;  ///< the global partitioned area
  PipelineSetup setup_egress;   ///< edge egress pipelines

  /// REQUIRED: TM1 placement of packets onto central pipelines (§3.1).
  tm::PlacementFn placement;
  /// Optional TM1 discipline per central pipeline (e.g. MergeScheduler);
  /// default FIFO.
  tm::SchedulerFactory tm1_scheduler;
  /// Optional TM2 discipline per egress sub-pipeline (e.g. PifoScheduler
  /// for in-switch coflow prioritization, §5); default FIFO.
  tm::SchedulerFactory tm2_scheduler;
  /// Optional demux rule; default round-robin.
  DemuxFn demux;
  /// What this program vouches for the flow fast path (DESIGN.md §13); a
  /// default (route-less) contract keeps the fast path disarmed even when
  /// AdcpConfig::fastpath_entries > 0.
  fastpath::FastpathContract fastpath;
  /// Chooses which of the destination port's m egress sub-pipelines carries
  /// a packet (return value taken modulo m). Default: flow-id hash, which
  /// keeps each flow on one sub-pipeline and therefore in order across the
  /// m:1 TX mux. Programs that merge multiple flows into one ordered
  /// stream (TM1 MergeScheduler) should pin the stream to a single
  /// sub-pipe here.
  DemuxFn egress_demux;
};

}  // namespace adcp::core

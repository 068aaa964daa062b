// Program model for the RMT switch.
//
// An RMT program supplies the parse graph, the deparser, and hooks that
// configure each pipeline's stages (tables, registers, stage programs).
// During processing, programs steer packets by writing intrinsic metadata
// fields: kMetaEgressPort / kMetaMulticastGroup for forwarding, kMetaDrop,
// and kMetaRecirc to request a recirculation pass.
#pragma once

#include <functional>
#include <memory>

#include "fastpath/fastpath.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "pipeline/pipeline.hpp"

namespace adcp::rmt {

/// Lane width of the default RMT parse graph: RMT parsers deliver scalars
/// only, so the standard graph leaves INC elements in the payload (the
/// paper's scalar restriction).
inline constexpr std::size_t kRmtParseLanes = 0;

/// Configures one pipeline's stages at install time. `index` is the
/// pipeline number; programs can give different pipelines different tables.
using PipelineSetup = std::function<void(pipeline::Pipeline& pipe, std::uint32_t index)>;

/// A complete RMT data-plane program.
struct RmtProgram {
  /// The parse graph and deparser the switch installs. By default every
  /// RMT switch shares the process-wide standard pair.
  std::shared_ptr<const packet::ParseGraph> shared_parse =
      packet::shared_standard_parse_graph<kRmtParseLanes>();
  std::shared_ptr<const packet::Deparser> shared_deparse = packet::shared_standard_deparser();
  PipelineSetup setup_ingress;  ///< optional; default leaves stages empty
  PipelineSetup setup_egress;   ///< optional
  /// What this program vouches for the datapath fast path (DESIGN.md §13).
  /// Default (no route fn) keeps the fast path disarmed.
  fastpath::FastpathContract fastpath;
};

}  // namespace adcp::rmt

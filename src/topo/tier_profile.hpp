// Tier profiles and switch templates — the fabric construction API.
//
// Building a fabric used to mean three divergent config-struct paths (one
// per switch model) each eagerly allocating every stage's register/array
// memory, so constructing fat_tree(8) cost minutes and gigabytes before a
// single packet moved — the "provisioned, not consumed" asymmetry the
// paper criticizes (§3.1), recreated in the simulator's own allocator.
//
// The redesign splits construction into:
//
//  * TierProfile — one value that derives all three models' configs from a
//    port count. Port-count→pipeline-count derivation
//    (`rmt_pipelines_for`) lives here and only here.
//
//  * SwitchTemplate — the immutable per-(kind, port_count) bundle a
//    Network builds once and shares by shared_ptr across every identical
//    switch: resolved model config plus the parse graph / deparser the
//    routing programs use. Per-instance state (pipeline stages and their
//    registers, TM accounting, metric scopes) stays per switch and
//    materializes on first touch (pipeline::Pipeline, mat::RegisterFile),
//    with byte-accurate accounting of what is reserved and what is touched
//    via mat::StateAccounting.
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "packet/deparser.hpp"
#include "packet/parser.hpp"
#include "rmt/config.hpp"
#include "rtc/config.hpp"
#include "telem/int_format.hpp"

namespace adcp::topo {

/// Which cycle-level switch model fills every position of the fabric.
enum class SwitchKind { kRmt, kAdcp, kRtc };

/// How every switch of a fabric tier is provisioned. Every switch keeps
/// its stage state on first touch and shares its model's parse graph /
/// deparser with the identical switches of the fabric.
struct TierProfile {
  /// Per-switch flow fast-path verdict cache entries (DESIGN.md §13).
  /// 0 disables; a positive value arms the cache on every switch whose
  /// installed program provides a fastpath contract. Applied to all three
  /// model configs by the rmt()/adcp()/rtc() resolutions.
  std::uint32_t fastpath_entries = 0;
  /// Fabric-wide in-band telemetry (DESIGN.md §14). Disarmed by default;
  /// arming adds a management port per switch, INT stamping taps, TM
  /// watermark gauges, and a Collector on the last host.
  telem::TelemetryProfile telemetry;

  /// Base configs the per-switch derivation starts from. Change these to
  /// customize geometry fabric-wide; `port_count` and pipeline counts are
  /// overridden per switch position.
  rmt::RmtConfig rmt_base;
  core::AdcpConfig adcp_base;
  rtc::RtcConfig rtc_base;

  /// Largest pipeline count in {4, 2, 1} dividing `ports` (RMT requires
  /// port_count % pipeline_count == 0; trunk ports make odd totals
  /// common). The single home of this derivation for all callers — it was
  /// previously duplicated builder-side in network.cpp.
  [[nodiscard]] static std::uint32_t rmt_pipelines_for(std::uint32_t ports);

  /// Resolved per-model configs for a switch with `port_count` ports.
  [[nodiscard]] rmt::RmtConfig rmt(std::uint32_t port_count) const;
  [[nodiscard]] core::AdcpConfig adcp(std::uint32_t port_count) const;
  [[nodiscard]] rtc::RtcConfig rtc(std::uint32_t port_count) const;
};

/// The immutable part of a switch, built once per (kind, port_count) key
/// and shared across every identical switch of the fabric. The config
/// member matching `kind` is the resolved one; `parse`/`deparse` are the
/// model's process-wide standard pair, which its programs install.
struct SwitchTemplate {
  SwitchKind kind = SwitchKind::kAdcp;
  std::uint32_t port_count = 0;
  rmt::RmtConfig rmt;
  core::AdcpConfig adcp;
  rtc::RtcConfig rtc;
  std::shared_ptr<const packet::ParseGraph> parse;
  std::shared_ptr<const packet::Deparser> deparse;

  static SwitchTemplate build(const TierProfile& profile, SwitchKind kind,
                              std::uint32_t port_count);
};

}  // namespace adcp::topo

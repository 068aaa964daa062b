#include "topo/tier_profile.hpp"

#include "core/program.hpp"
#include "rmt/program.hpp"
#include "rtc/rtc_switch.hpp"

namespace adcp::topo {

std::uint32_t TierProfile::rmt_pipelines_for(std::uint32_t ports) {
  for (std::uint32_t d : {4u, 2u}) {
    if (ports % d == 0) return d;
  }
  return 1;
}

rmt::RmtConfig TierProfile::rmt(std::uint32_t port_count) const {
  rmt::RmtConfig cfg = rmt_base;
  cfg.port_count = port_count;
  cfg.pipeline_count = rmt_pipelines_for(port_count);
  cfg.fastpath_entries = fastpath_entries;
  cfg.tm_track_watermark = telemetry.armed;
  return cfg;
}

core::AdcpConfig TierProfile::adcp(std::uint32_t port_count) const {
  core::AdcpConfig cfg = adcp_base;
  cfg.port_count = port_count;
  cfg.fastpath_entries = fastpath_entries;
  cfg.tm_track_watermark = telemetry.armed;
  return cfg;
}

rtc::RtcConfig TierProfile::rtc(std::uint32_t port_count) const {
  rtc::RtcConfig cfg = rtc_base;
  cfg.port_count = port_count;
  cfg.fastpath_entries = fastpath_entries;
  return cfg;
}

SwitchTemplate SwitchTemplate::build(const TierProfile& profile, SwitchKind kind,
                                     std::uint32_t port_count) {
  SwitchTemplate t;
  t.kind = kind;
  t.port_count = port_count;
  // The parse graph is the model's default, the one its programs share.
  switch (kind) {
    case SwitchKind::kRmt:
      t.rmt = profile.rmt(port_count);
      t.parse = packet::shared_standard_parse_graph<rmt::kRmtParseLanes>();
      break;
    case SwitchKind::kAdcp:
      t.adcp = profile.adcp(port_count);
      t.parse = packet::shared_standard_parse_graph<core::kAdcpParseLanes>();
      break;
    case SwitchKind::kRtc:
      t.rtc = profile.rtc(port_count);
      t.parse = packet::shared_standard_parse_graph<rtc::kRtcParseLanes>();
      break;
  }
  t.deparse = packet::shared_standard_deparser();
  return t;
}

}  // namespace adcp::topo

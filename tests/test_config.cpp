// Tests for switch config validation.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "rmt/config.hpp"

namespace adcp {
namespace {

TEST(ConfigValidation, RmtGoodConfigPasses) {
  const rmt::RmtConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidation, RmtCatchesIndivisiblePorts) {
  rmt::RmtConfig cfg;
  cfg.port_count = 10;
  cfg.pipeline_count = 4;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(ConfigValidation, RmtCatchesZeroClock) {
  rmt::RmtConfig cfg;
  cfg.clock_ghz = 0.0;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(ConfigValidation, AdcpGoodConfigPasses) {
  const core::AdcpConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidation, AdcpCatchesZeroDemux) {
  core::AdcpConfig cfg;
  cfg.demux_factor = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(ConfigValidation, AdcpCatchesZeroLaneWidth) {
  core::AdcpConfig cfg;
  cfg.central_stage.array->lane_width = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

}  // namespace
}  // namespace adcp

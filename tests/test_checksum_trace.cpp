// Tests for the IPv4 checksum utilities, CSV field escaping, and config
// validation.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "packet/checksum.hpp"
#include "packet/headers.hpp"
#include "rmt/config.hpp"
#include "sim/span.hpp"

namespace adcp {
namespace {

TEST(Checksum, Rfc1071Example) {
  // RFC 1071's worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
  // checksum (complement) 0x220d.
  packet::Buffer b(8);
  const std::uint8_t bytes[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  for (std::size_t i = 0; i < 8; ++i) b.write(i, 1, bytes[i]);
  EXPECT_EQ(packet::internet_checksum(b, 0, 8), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  packet::Buffer b(3);
  b.write(0, 2, 0x1234);
  b.write(2, 1, 0x56);
  // Sum = 0x1234 + 0x5600 = 0x6834; complement = 0x97cb.
  EXPECT_EQ(packet::internet_checksum(b, 0, 3), 0x97cb);
}

TEST(Checksum, WriteThenVerifyRoundTrips) {
  packet::IncPacketSpec spec;
  spec.inc.elements.push_back({1, 2});
  packet::Packet pkt = packet::make_inc_packet(spec);
  EXPECT_FALSE(packet::verify_ipv4_checksum(pkt));  // built with zero checksum
  packet::write_ipv4_checksum(pkt);
  EXPECT_TRUE(packet::verify_ipv4_checksum(pkt));
}

TEST(Checksum, CorruptionDetected) {
  packet::IncPacketSpec spec;
  spec.inc.elements.push_back({1, 2});
  packet::Packet pkt = packet::make_inc_packet(spec);
  packet::write_ipv4_checksum(pkt);
  pkt.data.write(packet::kEthernetBytes + 12, 1, 0xAA);  // flip a src-IP byte
  EXPECT_FALSE(packet::verify_ipv4_checksum(pkt));
}

TEST(Checksum, TruncatedPacketNeverValid) {
  packet::Packet pkt;
  pkt.data.resize(10);
  EXPECT_FALSE(packet::verify_ipv4_checksum(pkt));
}

TEST(Csv, CsvEscapePassesPlainFieldsThrough) {
  EXPECT_EQ(sim::csv_escape("plain"), "plain");
  EXPECT_EQ(sim::csv_escape(""), "");
  EXPECT_EQ(sim::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(sim::csv_escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(sim::csv_escape("line1\nline2"), "\"line1\nline2\"");
}

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

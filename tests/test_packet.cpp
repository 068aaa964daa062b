// Unit + property tests for buffers, PHV, headers, parser, and deparser.
#include <gtest/gtest.h>

#include <vector>

#include "packet/buffer.hpp"
#include "packet/deparser.hpp"
#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "packet/phv.hpp"

namespace adcp::packet {
namespace {

namespace f = fields;
namespace af = array_fields;

TEST(Buffer, BigEndianRoundTrip) {
  Buffer b(16);
  b.write(0, 4, 0xdeadbeef);
  EXPECT_EQ(b.read(0, 4), 0xdeadbeefu);
  EXPECT_EQ(b.read(0, 1), 0xdeu);  // most significant byte first
  EXPECT_EQ(b.read(3, 1), 0xefu);
}

TEST(Buffer, AppendGrowsAndReturnsOffset) {
  Buffer b;
  EXPECT_EQ(b.append(2, 0x1234), 0u);
  EXPECT_EQ(b.append(4, 0x56789abc), 2u);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.read(2, 4), 0x56789abcu);
}

TEST(Buffer, EightByteValues) {
  Buffer b(8);
  b.write(0, 8, 0x0102030405060708ULL);
  EXPECT_EQ(b.read(0, 8), 0x0102030405060708ULL);
  EXPECT_EQ(b.bytes()[0], 0x01);
  EXPECT_EQ(b.bytes()[7], 0x08);
}

TEST(Phv, SetGetHasClear) {
  Phv phv;
  EXPECT_FALSE(phv.has(f::kIpDst));
  phv.set(f::kIpDst, 0x0a000005);
  EXPECT_TRUE(phv.has(f::kIpDst));
  EXPECT_EQ(phv.get(f::kIpDst), 0x0a000005u);
  phv.clear(f::kIpDst);
  EXPECT_FALSE(phv.has(f::kIpDst));
}

TEST(Phv, GetOrFallsBack) {
  Phv phv;
  EXPECT_EQ(phv.get_or(f::kUdpDst, 99), 99u);
  phv.set(f::kUdpDst, 5);
  EXPECT_EQ(phv.get_or(f::kUdpDst, 99), 5u);
}

TEST(Phv, ArraysIndependentOfScalars) {
  Phv phv;
  phv.array(af::kIncKeys) = {1, 2, 3};
  EXPECT_EQ(phv.array(af::kIncKeys).size(), 3u);
  EXPECT_EQ(phv.valid_count(), 0u);
}

TEST(Phv, EqualityIncludesArrays) {
  Phv a, b;
  a.set(f::kIpSrc, 1);
  b.set(f::kIpSrc, 1);
  EXPECT_EQ(a, b);
  a.array(af::kIncValues).push_back(7);
  EXPECT_NE(a, b);
}

IncPacketSpec sample_spec(std::size_t elems) {
  IncPacketSpec spec;
  spec.inc.opcode = IncOpcode::kAggUpdate;
  spec.inc.coflow_id = 42;
  spec.inc.flow_id = 7;
  spec.inc.seq = 123;
  spec.inc.worker_id = 3;
  for (std::size_t i = 0; i < elems; ++i) {
    spec.inc.elements.push_back(
        {static_cast<std::uint32_t>(1000 + i), static_cast<std::uint32_t>(i * 11)});
  }
  return spec;
}

TEST(Headers, IncPacketSize) {
  EXPECT_EQ(inc_packet_bytes(0), 58u);
  EXPECT_EQ(inc_packet_bytes(4), 58u + 32u);
  const Packet pkt = make_inc_packet(sample_spec(4));
  EXPECT_EQ(pkt.size(), inc_packet_bytes(4));
}

TEST(Headers, EncodeDecodeRoundTrip) {
  const IncPacketSpec spec = sample_spec(8);
  const Packet pkt = make_inc_packet(spec);
  IncHeader out;
  ASSERT_TRUE(decode_inc(pkt, out));
  EXPECT_EQ(out, spec.inc);
}

TEST(Headers, PadToEnlarges) {
  IncPacketSpec spec = sample_spec(1);
  spec.pad_to = 200;
  const Packet pkt = make_inc_packet(spec);
  EXPECT_EQ(pkt.size(), 200u);
  IncHeader out;
  ASSERT_TRUE(decode_inc(pkt, out));  // padding must not break decode
  EXPECT_EQ(out.elements.size(), 1u);
}

TEST(Headers, DecodeRejectsNonInc) {
  Packet pkt = make_inc_packet(sample_spec(1));
  pkt.data.write(36, 2, 1234);  // UDP dst != kIncUdpPort
  IncHeader out;
  EXPECT_FALSE(decode_inc(pkt, out));
}

TEST(Headers, DecodeRejectsTruncated) {
  Packet pkt = make_inc_packet(sample_spec(4));
  pkt.data.resize(inc_packet_bytes(4) - kIncElementBytes);  // chop one element
  IncHeader out;
  EXPECT_FALSE(decode_inc(pkt, out));
}

TEST(Headers, MetadataMirrorsIds) {
  const Packet pkt = make_inc_packet(sample_spec(2));
  EXPECT_EQ(pkt.meta.flow_id, 7u);
  EXPECT_EQ(pkt.meta.coflow_id, 42u);
}

TEST(Parser, ExtractsStandardFields) {
  const ParseGraph g = standard_parse_graph();
  const Parser parser(&g);
  Packet pkt = make_inc_packet(sample_spec(3));
  pkt.meta.ingress_port = 9;
  const ParseResult r = parser.parse(pkt);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.phv.get(f::kEthType), kEtherTypeIpv4);
  EXPECT_EQ(r.phv.get(f::kIpProto), kIpProtoUdp);
  EXPECT_EQ(r.phv.get(f::kUdpDst), kIncUdpPort);
  EXPECT_EQ(r.phv.get(f::kIncCoflowId), 42u);
  EXPECT_EQ(r.phv.get(f::kIncFlowId), 7u);
  EXPECT_EQ(r.phv.get(f::kIncSeq), 123u);
  EXPECT_EQ(r.phv.get(f::kMetaIngressPort), 9u);
  EXPECT_EQ(r.path.size(), 4u);  // eth, ip, udp, inc
}

TEST(Parser, ExtractsArrays) {
  const ParseGraph g = standard_parse_graph(16);
  const Parser parser(&g);
  const ParseResult r = parser.parse(make_inc_packet(sample_spec(5)));
  ASSERT_TRUE(r.accepted);
  const auto keys = r.phv.array(af::kIncKeys);
  const auto values = r.phv.array(af::kIncValues);
  ASSERT_EQ(keys.size(), 5u);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(keys[0], 1000u);
  EXPECT_EQ(keys[4], 1004u);
  EXPECT_EQ(values[4], 44u);
  EXPECT_EQ(r.consumed, inc_packet_bytes(5));
}

TEST(Parser, ScalarModeLeavesElementsInPayload) {
  const ParseGraph g = standard_parse_graph(0);
  const Parser parser(&g);
  const ParseResult r = parser.parse(make_inc_packet(sample_spec(5)));
  ASSERT_TRUE(r.accepted);
  EXPECT_TRUE(r.phv.array(af::kIncKeys).empty());
  EXPECT_EQ(r.consumed, inc_packet_bytes(0));  // headers only
}

TEST(Parser, RejectsOverWideArray) {
  const ParseGraph g = standard_parse_graph(4);
  const Parser parser(&g);
  const ParseResult r = parser.parse(make_inc_packet(sample_spec(5)));
  EXPECT_FALSE(r.accepted);  // 5 elements > 4-lane budget
}

TEST(Parser, RejectsTruncatedHeader) {
  const ParseGraph g = standard_parse_graph();
  const Parser parser(&g);
  Packet pkt = make_inc_packet(sample_spec(0));
  pkt.data.resize(30);  // cuts into UDP
  EXPECT_FALSE(parser.parse(pkt).accepted);
}

TEST(Parser, NonIpAcceptsAsL2) {
  const ParseGraph g = standard_parse_graph();
  const Parser parser(&g);
  Packet pkt = make_inc_packet(sample_spec(0));
  pkt.data.write(12, 2, 0x86dd);  // not IPv4
  const ParseResult r = parser.parse(pkt);
  EXPECT_TRUE(r.accepted);
  EXPECT_FALSE(r.phv.has(f::kIpSrc));
  EXPECT_EQ(r.consumed, kEthernetBytes);
}

TEST(Deparser, RoundTripReproducesBytes) {
  const ParseGraph g = standard_parse_graph(16);
  const Parser parser(&g);
  const Deparser dep = standard_deparser();
  const Packet pkt = make_inc_packet(sample_spec(6));
  const ParseResult r = parser.parse(pkt);
  ASSERT_TRUE(r.accepted);
  const Packet out = dep.deparse(r.phv, pkt, r.consumed);
  EXPECT_EQ(out.data, pkt.data);
}

TEST(Deparser, ModifiedPhvChangesWire) {
  const ParseGraph g = standard_parse_graph(16);
  const Parser parser(&g);
  const Deparser dep = standard_deparser();
  const Packet pkt = make_inc_packet(sample_spec(2));
  ParseResult r = parser.parse(pkt);
  ASSERT_TRUE(r.accepted);
  r.phv.array(af::kIncValues)[0] = 777;
  r.phv.set(f::kIncOpcode, static_cast<std::uint64_t>(IncOpcode::kAggResult));
  const Packet out = dep.deparse(r.phv, pkt, r.consumed);
  IncHeader decoded;
  ASSERT_TRUE(decode_inc(out, decoded));
  EXPECT_EQ(decoded.opcode, IncOpcode::kAggResult);
  EXPECT_EQ(decoded.elements[0].value, 777u);
  EXPECT_EQ(decoded.elements[1].value, 11u);  // untouched
}

// Property sweep: parse -> deparse is the identity for any element count
// the parser is configured to accept.
class RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTrip, ParseDeparseIdentity) {
  const std::size_t elems = GetParam();
  const ParseGraph g = standard_parse_graph(64);
  const Parser parser(&g);
  const Deparser dep = standard_deparser();
  const Packet pkt = make_inc_packet(sample_spec(elems));
  const ParseResult r = parser.parse(pkt);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(dep.deparse(r.phv, pkt, r.consumed).data, pkt.data);
}

INSTANTIATE_TEST_SUITE_P(ElementCounts, RoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 8, 15, 16, 32, 64));

}  // namespace
}  // namespace adcp::packet

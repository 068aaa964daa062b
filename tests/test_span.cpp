// Packet-span tracing: deterministic head-sampling, the flight-recorder
// ring, recorder no-op gating, and the Perfetto exporter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/span.hpp"

namespace adcp::sim {
namespace {

TEST(TraceSampler, DecisionsAndIdsArePureFunctionsOfFlowSeqSeed) {
  const TraceSampler s(4, 0x1234);
  const TraceSampler same(4, 0x1234);
  int sampled = 0;
  for (std::uint64_t flow = 0; flow < 1000; ++flow) {
    ASSERT_EQ(s.sampled(flow), same.sampled(flow)) << flow;
    if (!s.sampled(flow)) continue;
    ++sampled;
    ASSERT_EQ(s.trace_id(flow, 7), same.trace_id(flow, 7));
    ASSERT_NE(s.trace_id(flow, 7), 0u);               // 0 means unsampled
    ASSERT_NE(s.trace_id(flow, 7), s.trace_id(flow, 8));  // per-packet ids
  }
  // 1-in-4 by hash: roughly a quarter of flows, not none and not all.
  EXPECT_GT(sampled, 150);
  EXPECT_LT(sampled, 400);

  // A different seed picks a different flow subset.
  const TraceSampler other(4, 0x9999);
  int moved = 0;
  for (std::uint64_t flow = 0; flow < 1000; ++flow) {
    moved += s.sampled(flow) != other.sampled(flow);
  }
  EXPECT_GT(moved, 0);
}

TEST(TraceSampler, EveryOneTracesAllAndZeroTracesNone) {
  const TraceSampler all(1, 42);
  const TraceSampler none;  // default: disabled
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    EXPECT_TRUE(all.sampled(flow));
    EXPECT_FALSE(none.sampled(flow));
  }
  EXPECT_FALSE(none.enabled());
  EXPECT_TRUE(all.enabled());
}

TEST(SpanBuffer, DisabledBufferAndDetachedRecorderDropEverything) {
  SpanBuffer buf;
  SpanRecorder rec = buf.recorder("sw0");  // buffer not enabled yet
  rec.span(SpanKind::kRx, 1, 10, 20);
  EXPECT_EQ(buf.recorded(), 0u);

  SpanRecorder detached;
  EXPECT_FALSE(detached.attached());
  detached.span(SpanKind::kRx, 1, 10, 20);  // must not crash

  buf.enable(8);
  rec.span(SpanKind::kRx, 0, 10, 20);  // trace_id 0 = unsampled packet
  EXPECT_EQ(buf.recorded(), 0u);
  rec.span(SpanKind::kRx, 1, 10, 20);
  EXPECT_EQ(buf.recorded(), 1u);
}

TEST(SpanBuffer, RingWrapsOldestFirstAndCountsDrops) {
  SpanBuffer buf;
  buf.enable(4);
  SpanRecorder rec = buf.recorder("sw0");
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.span(SpanKind::kTx, 100 + i, i * 10, i * 10 + 5, i);
  }
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.at(i).a0, 6u + i);  // logical order: oldest survivor first
    EXPECT_EQ(buf.at(i).trace_id, 106u + i);
  }

  buf.clear();
  EXPECT_EQ(buf.recorded(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  // Interned component names survive clear(): recorders stay valid.
  rec.span(SpanKind::kTx, 1, 0, 1);
  EXPECT_EQ(buf.component_names()[buf.at(0).component], "sw0");
}

TEST(SpanBuffer, InternsNamesDenselyInFirstUseOrder) {
  // 2000 component names sharing a long prefix, first used in a permuted
  // order (7919 is prime, so i * 7919 mod 2000 visits every switch once).
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    names.push_back("topo.sw" + std::to_string(i * 7919 % 2000) + ".tm1");
  }
  SpanBuffer buf;
  buf.enable(4096);
  std::uint64_t trace = 1;
  for (const std::string& n : names) buf.recorder(n).span(SpanKind::kRx, trace++, 0, 1);
  // Re-interning a name returns the id its first use got.
  std::vector<std::uint32_t> again;
  for (std::uint32_t i = 0; i < names.size(); i += 3) {
    buf.recorder(names[i]).span(SpanKind::kTx, trace++, 0, 1);
    again.push_back(i + 1);
  }
  buf.recorder("").span(SpanKind::kTx, trace++, 0, 1);
  again.push_back(0);

  // Index 0 is the anonymous component; names follow in first-use order.
  const std::vector<std::string>& listed = buf.component_names();
  ASSERT_EQ(listed.size(), names.size() + 1);
  EXPECT_EQ(listed[0], "");
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(buf.at(i).component, i + 1);
    EXPECT_EQ(listed[i + 1], names[i]);
  }
  ASSERT_EQ(buf.size(), names.size() + again.size());
  for (std::size_t j = 0; j < again.size(); ++j) {
    EXPECT_EQ(buf.at(names.size() + j).component, again[j]);
  }
}

/// Records a small two-component scene with one multi-hop packet.
SpanBuffer scene() {
  SpanBuffer buf;
  buf.enable(64);
  SpanRecorder sw0 = buf.recorder("sw0");
  SpanRecorder sw1 = buf.recorder("sw1");
  sw0.span(SpanKind::kRx, 11, 100, 200, 3, 128);
  sw0.span(SpanKind::kTx, 11, 250, 300, 1, 128);
  sw1.span(SpanKind::kRx, 11, 400, 500, 2, 128);
  sw1.instant(SpanKind::kDrop, 23, 450, static_cast<std::uint64_t>(DropReason::kAdmission));
  return buf;
}

TEST(PerfettoExport, EmitsMetadataCompleteAndFlowEvents) {
  const SpanBuffer buf = scene();
  const std::string json = spans_to_perfetto({&buf});

  // Required trace-event fields and the process/track metadata.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"adcp-fabric\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sw0/rx\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sw1/drop\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"0xb\""), std::string::npos);

  // trace 11 has 3 spans: flow start + step + finish arrows; trace 23 has
  // a single span, which must NOT produce a dangling arrow.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"id\":\"0xb\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"s\",\"id\":\"0x17\""), std::string::npos);

  // X-event timestamps are globally sorted (begin-time sort), which makes
  // every per-track sequence monotone — the schema check CI re-verifies.
  double last = -1.0;
  for (std::size_t pos = json.find("\"ph\":\"X\",\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\",\"ts\":", pos + 1)) {
    const double ts = std::strtod(json.c_str() + pos + 14, nullptr);
    EXPECT_GE(ts, last);
    last = ts;
  }
  EXPECT_GT(last, 0.0);
}

TEST(PerfettoExport, BytesAreIndependentOfBufferArrivalInterleaving) {
  // The same spans recorded into two buffers (shard split) must export the
  // same bytes as one buffer, regardless of buffer order — the exporter's
  // sort key is a total order over span contents.
  SpanBuffer one;
  one.enable(16);
  SpanBuffer a, b;
  a.enable(16);
  b.enable(16);
  SpanRecorder r1 = one.recorder("swA"), r2 = one.recorder("swB");
  SpanRecorder ra = a.recorder("swA"), rb = b.recorder("swB");
  r1.span(SpanKind::kRx, 5, 10, 20);
  r2.span(SpanKind::kRx, 5, 30, 40);
  r1.span(SpanKind::kTx, 6, 15, 25);
  ra.span(SpanKind::kRx, 5, 10, 20);
  rb.span(SpanKind::kRx, 5, 30, 40);
  ra.span(SpanKind::kTx, 6, 15, 25);

  const std::string merged = spans_to_perfetto({&one});
  EXPECT_EQ(spans_to_perfetto({&a, &b}), merged);
  EXPECT_EQ(spans_to_perfetto({&b, &a}), merged);
}

TEST(WriteTextFile, RoundTripsAndFailsOnBadPath) {
  const std::string path = ::testing::TempDir() + "adcp_span_test.json";
  ASSERT_TRUE(write_text_file(path, "{\"ok\":1}\n"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char got[32] = {};
  const std::size_t n = std::fread(got, 1, sizeof(got) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(got, n), "{\"ok\":1}\n");
  EXPECT_FALSE(write_text_file("/nonexistent-dir/x/y.json", "x"));
}

}  // namespace
}  // namespace adcp::sim

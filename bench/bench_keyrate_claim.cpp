// E5 — The §3.2 headline claim: "RMT switches ... capped at 6 Bops/s. By
// supporting 8- or 16-wide array processing, the ADCP architecture can
// push that limit by one order of magnitude simply by allowing the
// application to pack 8 or 16 keys per packet."
//
// Part 1 (saturated pipeline): drive one central pipeline at full
// admission with k-key packets and measure retired keys per second
// directly — the paper's "key rate" as opposed to packet rate.
// Part 2 (analytic, 12.8 Tbps class): scale part 1's per-pipe rates to the
// paper's 4-pipe, 5-6 Bpps switch.
//
// Exits 1 unless the table reads the claim at its printed precision: the
// scalar switch at 6.00 Bops/s, the 16-lane engine at 8.0x for k = 8 and
// 16.0x for k = 16, and k = 32 plateauing at 16.0x (or if the report
// cannot be written).
#include <cstdio>
#include <string>

#include "bench_report.hpp"
#include "packet/fields.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/time.hpp"

namespace {

using namespace adcp;

/// Keys/s retired by one pipeline at `clock_ghz` processing k-key batches
/// with a `width`-lane engine (0 = RMT scalar: one key per packet-pass).
double keys_per_second(double clock_ghz, std::uint32_t k, std::uint32_t width) {
  pipeline::PipelineConfig pc;
  pc.stage_count = 12;
  pc.clock_ghz = clock_ghz;
  if (width > 0) {
    pc.stage.array = mat::ArrayEngineConfig{};
    pc.stage.array->lane_width = width;
  }
  pipeline::Pipeline pipe(pc);
  if (width > 0) {
    pipe.set_stage_program(0, [k](packet::Phv& phv, pipeline::Stage& stage) {
      auto* engine = stage.array_engine();
      std::uint64_t cycles = 0;
      auto& keys = phv.array(packet::array_fields::kIncKeys);
      auto& vals = phv.array(packet::array_fields::kIncValues);
      keys.assign(k, 7);
      vals.assign(k, 1);
      engine->update_batch(mat::AluOp::kAdd, keys, vals, cycles);
      return cycles;
    });
  }

  // Saturate admission for a fixed horizon.
  constexpr std::uint64_t kPackets = 200'000;
  packet::Phv phv;
  sim::Time last_exit = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    last_exit = pipe.process(0, phv).exit;
  }
  const double seconds = static_cast<double>(last_exit) / 1e12;
  const double keys = static_cast<double>(kPackets) * (width > 0 ? k : 1);
  return keys / seconds;
}

}  // namespace

int main() {
  constexpr double kClockGhz = 1.5;  // 12.8T-class: 4 pipes x 1.5 GHz = 6 Bpps
  constexpr std::uint32_t kPipes = 4;

  std::printf(
      "§3.2 key-rate claim (12.8 Tbps-class: %u pipelines at %.1f GHz = %.0f Bpps)\n\n",
      kPipes, kClockGhz, kPipes * kClockGhz);
  std::printf("%-26s %-8s %-18s %-16s %-10s\n", "configuration", "k", "keys/s per pipe",
              "switch Bops/s", "speedup");

  sim::MetricRegistry report;
  const double scalar = keys_per_second(kClockGhz, 1, 0);
  std::printf("%-26s %-8u %-18.3e %-16.2f %6.1fx\n", "RMT scalar (1 key/pkt)", 1, scalar,
              scalar * kPipes / 1e9, 1.0);
  report.gauge("rmt_scalar.keys_per_sec").set(scalar);
  report.gauge("rmt_scalar.switch_bops").set(scalar * kPipes / 1e9);
  bool ok = bench::reads("RMT scalar switch Bops/s", "%.2f", scalar * kPipes / 1e9, "6.00");
  for (const std::uint32_t k : {2u, 4u, 8u, 16u}) {
    const double rate = keys_per_second(kClockGhz, k, 16);
    std::printf("%-26s %-8u %-18.3e %-16.2f %6.1fx\n", "ADCP 16-lane array", k, rate,
                rate * kPipes / 1e9, rate / scalar);
    if (k == 8) ok &= bench::reads("16-lane speedup at k = 8", "%.1f", rate / scalar, "8.0");
    if (k == 16) ok &= bench::reads("16-lane speedup at k = 16", "%.1f", rate / scalar, "16.0");
    sim::Scope row = report.scope("adcp_k" + std::to_string(k));
    row.gauge("keys_per_sec").set(rate);
    row.gauge("switch_bops").set(rate * kPipes / 1e9);
    row.gauge("speedup_vs_scalar").set(rate / scalar);
  }
  // Beyond the interconnect width the batch serializes: no further gain.
  const double over = keys_per_second(kClockGhz, 32, 16);
  std::printf("%-26s %-8u %-18.3e %-16.2f %6.1fx\n", "ADCP 16-lane, k>width", 32, over,
              over * kPipes / 1e9, over / scalar);
  report.gauge("adcp_k32_overwidth.keys_per_sec").set(over);
  report.gauge("adcp_k32_overwidth.speedup_vs_scalar").set(over / scalar);
  ok &= bench::reads("16-lane speedup at k = 32", "%.1f", over / scalar, "16.0");

  std::printf(
      "\nExpected shape: scalar caps the switch at ~%.0f Bops/s; 8- and 16-key\n"
      "packets multiply it 8x and 16x (one order of magnitude, the paper's claim);\n"
      "k beyond the lane width stops scaling (stalls eat the gain).\n",
      kPipes * kClockGhz);
  const bool wrote = bench::write_report(report, "keyrate_claim");
  return ok && wrote ? 0 : 1;
}

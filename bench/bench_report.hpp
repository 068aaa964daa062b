// Shared bench exporter: every bench_* binary funnels its headline numbers
// into a sim::MetricRegistry and emits one BENCH_<name>.json through this
// helper, so all reports carry the same adcp-metrics-v1 schema
// (see DESIGN.md "Observability") and can be diffed/aggregated by one
// consumer. Human-readable tables stay on stdout; this is the
// machine-readable half.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "sim/metrics.hpp"
#include "sim/span.hpp"

// First 8 hex digits of the commit the build was configured from, injected
// by bench/CMakeLists.txt (absent in ad-hoc compiles of this header).
#ifndef ADCP_GIT_SHA
#define ADCP_GIT_SHA "0"
#endif

namespace adcp::bench {

/// The build's abbreviated commit hash as a double-representable integer
/// (8 hex digits fit 32 bits exactly; 0 when built outside a git
/// checkout). Configure-time value, so it names the commit CMake last saw
/// — CI reconfigures every run, local incremental builds may lag by one.
inline double git_sha() {
  return static_cast<double>(std::strtoul(ADCP_GIT_SHA, nullptr, 16));
}

/// 64-bit FNV-1a of `s`. The benches hash snapshot JSON and Perfetto
/// trace bytes with it to check two runs for byte equality.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Paper-claim gate: true when `value` prints as `want` under `fmt`; says
/// so on stderr when it does not, leaving stdout as it is.
inline bool reads(const char* what, const char* fmt, double value, const char* want) {
  char got[32];
  std::snprintf(got, sizeof(got), fmt, value);
  if (std::strcmp(got, want) == 0) return true;
  std::fprintf(stderr, "claim failed: %s reads %s, not %s\n", what, got, want);
  return false;
}

/// Paper-claim gate: true when `lo <= value <= hi`; says so on stderr when
/// it does not.
inline bool within(const char* what, double value, double lo, double hi) {
  if (value >= lo && value <= hi) return true;
  std::fprintf(stderr, "claim failed: %s reads %.1f, outside [%.1f, %.1f]\n", what, value, lo,
               hi);
  return false;
}

/// Writes an already-assembled snapshot as BENCH_<name>.json (or `path`
/// when given) tagged with the bench name. Returns false (and says so) if
/// the file cannot be written — benches keep their stdout report either
/// way. Use this overload when the report merges several registries (e.g.
/// the parallel bench folding the engine's PDES self-profile in).
inline bool write_report(const sim::Snapshot& snap, const std::string& name,
                         std::string path = {}) {
  if (path.empty()) path = "BENCH_" + name + ".json";
  const bool ok = snap.write_json(path, name);
  if (ok) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return ok;
}

/// Writes a trace (Perfetto JSON) to `path`. Returns false (and says so)
/// if the file cannot be written; benches fail their run on it, as they do
/// on an unwritable report.
inline bool write_trace(const std::string& path, std::string_view json) {
  const bool ok = sim::write_text_file(path, json);
  if (ok) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return ok;
}

/// Snapshots `registry` and writes it via the overload above. Every report
/// that funnels through here records config.hardware_threads, so ns/op and
/// speedup figures can be judged against the cores the run actually had
/// (callers assembling a merged Snapshot set the gauge themselves).
inline bool write_report(sim::MetricRegistry& registry, const std::string& name,
                         std::string path = {}) {
  registry.gauge("config.hardware_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  registry.gauge("config.git_sha").set(git_sha());
  return write_report(registry.snapshot(), name, std::move(path));
}

}  // namespace adcp::bench

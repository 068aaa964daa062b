// Shared pieces of the repo benchmark: options, the per-pass result, the
// benchmark-side layer clock and the data-packet ledger.
//
// Everything here measures the simulator from outside: wall-clock brackets
// around calls into a layer, counters the layers already expose, and the
// simulated send/delivery times of the data packets the benchmark injects.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "packet/headers.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "topo/network.hpp"

namespace perfbench {

namespace sim = adcp::sim;
namespace packet = adcp::packet;
namespace topo = adcp::topo;

enum class WorkloadId { kAllreduceFt8Adcp, kChurnLsRmt, kIntIncastFt4Rmt };

struct Options {
  std::string workload;
  WorkloadId id = WorkloadId::kAllreduceFt8Adcp;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes: every gate still runs, in seconds for all three workloads.
  bool quick = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

/// A seed for one purpose (ECMP, loss, Zipf, telemetry, ...) derived from
/// the run's --seed, so one argument fixes every input of the run.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The layers the benchmark brackets with its own wall clock, named by
/// module.
enum Layer : std::size_t { kTopo, kCtrl, kNet, kSim, kPacket, kTm, kCore, kRmt, kLayerCount };
[[nodiscard]] const char* layer_name(Layer layer);

/// Monotonic wall clock in ns.
[[nodiscard]] std::uint64_t wall_ns();

/// Wall time per layer accumulated over one pass. In the traced pass every
/// interval is also recorded as a span (component "bench.<layer>", kind
/// kPdesBusy — the repo's wall-clock span kind — times in ns since the pass
/// began), so the pass exports with spans_to_perfetto(..., 1e-3).
class LayerClock {
 public:
  explicit LayerClock(sim::SpanBuffer* spans);
  [[nodiscard]] std::uint64_t now() const { return wall_ns() - origin_; }
  void add(Layer layer, std::uint64_t t0, std::uint64_t t1);
  [[nodiscard]] double ms(Layer layer) const { return static_cast<double>(ns_[layer]) / 1e6; }

 private:
  std::uint64_t origin_;
  std::array<std::uint64_t, kLayerCount> ns_{};
  std::array<sim::SpanRecorder, kLayerCount> rec_;
};

/// Send and delivery times of every data packet the benchmark injects.
/// Flows are registered during set-up and never reallocate afterwards. A
/// flow has one source and one destination host, so in a sharded run its
/// send side is written only on the source's shard and its delivery side
/// only on the destination's.
class DataLedger {
 public:
  static constexpr std::uint32_t kFlowBase = 0x5000'0000;

  /// Registers a flow of `packets` packets; returns its wire flow id.
  std::uint32_t add_flow(std::uint32_t packets);
  /// Records the switch-arrival time Host::send_inc returned.
  void sent(std::uint32_t flow_id, std::uint32_t seq, sim::Time at_switch);
  /// Called from a destination host's RX callback: records the delivery
  /// when `pkt` is a ledger packet and returns its flow index, else -1.
  std::int64_t on_rx(const packet::Packet& pkt, sim::Time now);

  struct Totals {
    std::uint64_t offered = 0;    ///< packets of all registered flows
    std::uint64_t unsent = 0;     ///< registered but never sent
    std::uint64_t delivered = 0;
    std::uint64_t duplicates = 0;
    sim::Time done = 0;           ///< last delivery
    std::vector<double> lat_us;   ///< delivery - switch arrival, sorted
  };
  [[nodiscard]] Totals totals() const;

 private:
  struct Flow {
    std::vector<sim::Time> sent_at;  ///< 0 = not sent
    std::vector<sim::Time> rx_at;    ///< 0 = not delivered
    std::uint64_t duplicates = 0;
  };
  std::vector<Flow> flows_;
};

/// What one pass measured.
struct PassResult {
  // Host time from the benchmark's own brackets.
  double setup_ms = 0;  ///< Network constructor .. ready to inject
  double timed_ms = 0;  ///< first injection call .. run() returns
  std::array<double, kLayerCount> layer_ms{};

  // Simulated outputs; every pass of a run must reproduce them exactly.
  std::uint64_t events = 0;
  sim::Time done = 0;
  std::uint64_t hash = 0;       ///< FNV-1a of the merged snapshot JSON
  std::uint64_t offered = 0;    ///< data packets (+ churn queries)
  std::uint64_t delivered = 0;  ///< data packets (+ churn replies)
  std::uint64_t lat_samples = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  /// Exact per-layer counts and ratios of counts.
  std::map<std::string, double> counts;
  /// Gate violations; any entry fails the run.
  std::vector<std::string> errors;

  // Untimed passes only: span means and replays (kTraced), the event-heap
  // peak (kStepped), the PDES profile (kSharded).
  std::map<std::string, double> traced;
  std::vector<std::pair<std::string, double>> self_ms;
};

enum class PassMode {
  kTimed,    ///< sim::Simulator::run(), nothing traced: the measured passes
  kTraced,   ///< as kTimed plus packet spans, wall spans and the layer replays
  kStepped,  ///< sim::Simulator stepped event by event to read the heap peak
  kSharded,  ///< sim::ParallelSimulator(2) with its self-profile and wall spans
};

/// Runs one pass of `opt.id` on a fresh fabric.
[[nodiscard]] PassResult run_pass(const Options& opt, PassMode mode);

/// Single-layer costs replayed on a pass's own packets (ns per packet).
struct Replay {
  double parse_deparse_ns = 0;
  double enq_deq_ns = 0;
  double fwd_ns = 0;  ///< standalone switch of the fabric's kind
};
/// A replay that loses packets or produces no bytes measured nothing: it
/// appends to `errors` instead of reporting a cost.
[[nodiscard]] Replay replay_layers(topo::Network& net,
                                   const std::vector<packet::IncPacketSpec>& specs,
                                   LayerClock& clock, std::vector<std::string>& errors);

}  // namespace perfbench

// Output-buffered shared-memory traffic manager.
//
// A TM owns one scheduler per output (an output feeds either an egress
// pipeline, a central pipeline, or a TX port depending on where the TM sits)
// and polices all queues against one shared buffer. Multicast replicates
// the packet to each requested output, charging the buffer per copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "packet/packet.hpp"
#include "packet/pool.hpp"
#include "sim/metrics.hpp"
#include "tm/scheduler.hpp"
#include "tm/shared_buffer.hpp"

namespace adcp::tm {

/// Builds the scheduler for output `i`; lets different outputs (or
/// different TMs — e.g. ADCP's TM1 vs TM2) use different disciplines.
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(std::uint32_t output)>;

/// TM sizing and policy.
struct TmConfig {
  std::uint32_t outputs = 4;
  std::uint64_t buffer_bytes = 32ull << 20;  ///< shared packet buffer
  double alpha = 1.0;                        ///< dynamic threshold factor
  SchedulerFactory make_scheduler;           ///< defaults to FIFO per output
  /// When > 0, packets enqueued while their output already holds more than
  /// this many bytes get their IP ECN field marked CE (congestion
  /// experienced) — standard switch AQM signaling.
  std::uint64_t ecn_threshold_bytes = 0;
  /// Mirror the shared buffer's peak occupancy into a registry watermark
  /// gauge ("buffer.watermark_bytes", max-merge across shards). Off by
  /// default so the registry footprint is unchanged unless telemetry arms
  /// it.
  bool track_watermark = false;
};

/// Snapshot view of a TM's counters (the registry metrics are the source
/// of truth; this keeps the familiar field-style read API).
struct TmStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;  ///< shared-buffer admission failures
  std::uint64_t dequeued = 0;
  std::uint64_t multicast_copies = 0;
  std::uint64_t ecn_marked = 0;
};

/// Registry-backed counters resolved once at construction; the hot path
/// increments through these references and never touches the name table.
struct TmMetrics {
  explicit TmMetrics(const sim::Scope& s)
      : enqueued(s.counter("enqueued")),
        drops_admission(s.counter("drops.admission")),
        dequeued(s.counter("dequeued")),
        multicast_copies(s.counter("multicast_copies")),
        ecn_marked(s.counter("ecn_marked")) {}

  sim::Counter& enqueued;
  sim::Counter& drops_admission;
  sim::Counter& dequeued;
  sim::Counter& multicast_copies;
  sim::Counter& ecn_marked;
};

/// The traffic manager proper. Passive: the surrounding switch model calls
/// enqueue when a pipeline emits a packet and dequeue when the downstream
/// element can accept one.
class TrafficManager {
 public:
  /// `scope` names this TM in a shared MetricRegistry (e.g. "rmt0.tm").
  /// A detached scope (the default) gives the TM a private registry under
  /// the prefix "tm", so standalone construction keeps working unchanged.
  explicit TrafficManager(TmConfig config, sim::Scope scope = {});

  /// Enqueues `pkt` for `output` in traffic class `klass`. Returns false
  /// (counting a drop) when the shared buffer rejects it.
  bool enqueue(std::uint32_t output, std::uint32_t klass, packet::Packet pkt);

  /// Counts one admitted multicast replica (switches build replicas and
  /// admit each one through enqueue() with their own drop accounting).
  void count_multicast_copy() { metrics_.multicast_copies.add(); }

  /// Next packet for `output` per its discipline; nullopt when the output
  /// has nothing releasable (empty, or a strict merge is waiting).
  std::optional<packet::Packet> dequeue(std::uint32_t output);

  [[nodiscard]] std::size_t output_packets(std::uint32_t output) const {
    return schedulers_.at(output)->packets();
  }
  [[nodiscard]] std::uint32_t outputs() const { return static_cast<std::uint32_t>(schedulers_.size()); }

  /// Direct access for policies that need scheduler-specific calls
  /// (e.g. MergeScheduler::register_flow).
  Scheduler& scheduler(std::uint32_t output) { return *schedulers_.at(output); }

  [[nodiscard]] TmStats stats() const {
    return TmStats{metrics_.enqueued.value(), metrics_.drops_admission.value(),
                   metrics_.dequeued.value(), metrics_.multicast_copies.value(),
                   metrics_.ecn_marked.value()};
  }
  [[nodiscard]] const TmMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const SharedBuffer& buffer() const { return buffer_; }

  /// Optional packet pool: multicast copies are built from recycled packets
  /// and admission-failure drops are released back instead of freed. The
  /// pool must outlive the TM.
  void set_pool(packet::Pool* pool) { pool_ = pool; }

 private:
  void maybe_mark_ecn(std::uint32_t output, packet::Packet& pkt);

  SharedBuffer buffer_;
  std::uint64_t ecn_threshold_;
  sim::Gauge* watermark_ = nullptr;  ///< null unless config.track_watermark
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  packet::Pool* pool_ = nullptr;  // not owned
  // Declared before metrics_: the fallback registry must exist when the
  // counter references are resolved in the constructor's init list.
  std::unique_ptr<sim::MetricRegistry> own_metrics_;
  TmMetrics metrics_;
};

}  // namespace adcp::tm

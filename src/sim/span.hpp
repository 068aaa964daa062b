// Packet-level span tracing: the per-packet, per-stage half of the
// observability layer (the MetricRegistry carries the aggregate half).
//
// Packets carry a sampled trace id in their metadata (deterministic,
// seeded head-sampling: 1-in-N by flow hash, so reruns — at any worker
// count — trace exactly the same packets). Every component that touches a
// sampled packet records named spans (begin/end in simulated time, an
// interned component name, a SpanKind, and two integer annotations: queue
// depth at enqueue, drop reason, port, ...) into a SpanBuffer.
//
// SpanBuffer is a fixed-capacity flight recorder: enable(capacity)
// preallocates the ring once, after which recording is a single POD store
// — no allocation, gated by the same counting-operator-new tests as the
// packet pools. When the ring wraps, the oldest spans are overwritten and
// counted as dropped (flight-recorder semantics: a long run keeps the most
// recent window). A disabled buffer (the default) makes every record call
// a two-compare no-op, so tracing costs nothing unless switched on.
//
// In parallel runs each shard's MetricRegistry owns its own SpanBuffer;
// the exporters below take the buffers in shard order and merge them
// deterministically (a stable sort on simulated begin time with a total
// tie-break), so the Chrome trace-event JSON bytes are identical for
// any --threads value. Open the JSON in ui.perfetto.dev: one track per
// (component, kind), flow arrows linking a packet's spans across switches.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace adcp::sim {

/// What a span measures. Fixed enum (not interned strings) so the hot
/// recording path never touches a string table.
enum class SpanKind : std::uint8_t {
  kHostTx,      ///< NIC serialization window at the sending host
  kRx,          ///< RX serialization + parse at port speed
  kIngress,     ///< ingress MAU pipeline residency
  kTmEnqueue,   ///< instant: TM admission; a0 = queue depth after enqueue
  kTmQueue,     ///< TM residency, enqueue -> dequeue; a0 = output index
  kCentral,     ///< ADCP central pipeline residency
  kEgress,      ///< egress MAU pipeline residency
  kTx,          ///< TX serialization window at the switch port
  kRecirc,      ///< recirculation pass through the loopback port
  kTrunk,       ///< inter-switch wire, TX handoff -> far-end inject
  kHostRx,      ///< switch TX handoff -> host delivery accounting
  kDrop,        ///< instant: packet dropped; a0 = DropReason
  kPdesBusy,    ///< PDES self-profiling: shard busy inside one round (ns)
  kPdesWait,    ///< PDES self-profiling: gap between a shard's work bursts
};
inline constexpr std::size_t kSpanKindCount = 14;

[[nodiscard]] std::string_view span_kind_name(SpanKind kind);

/// Drop-reason codes carried in a kDrop span's a0 annotation.
enum class DropReason : std::uint64_t {
  kParse = 1,       ///< parser rejected the packet
  kProgram = 2,     ///< pipeline program set the drop flag
  kAdmission = 3,   ///< TM shared-buffer admission refused the enqueue
  kRecircLimit = 4, ///< recirculation budget exhausted
  kLink = 5,        ///< host/trunk link loss lottery
  kNoRoute = 6,     ///< no egress port / empty multicast group
};

/// One recorded span. POD: ring-buffer slots assign it wholesale.
struct Span {
  std::uint64_t trace_id = 0;  ///< sampled packet id; PDES spans carry shard+1
  Time begin = 0;
  Time end = 0;
  std::uint32_t component = 0;  ///< index into SpanBuffer::component_names()
  SpanKind kind = SpanKind::kHostTx;
  std::uint64_t a0 = 0;  ///< kind-specific annotation (depth, reason, port)
  std::uint64_t a1 = 0;  ///< kind-specific annotation (bytes, class, ...)
};

/// Head-sampling policy threaded into benches and topologies. sample_every
/// == 0 disables tracing entirely; 1 traces every flow; N traces the flows
/// whose seeded hash lands on 0 mod N.
struct TraceConfig {
  std::uint32_t sample_every = 0;
  std::uint64_t seed = 0x51c7'ace5'eed0'0001ULL;
  std::size_t ring_capacity = 1u << 16;  ///< spans kept per buffer (shard)

  [[nodiscard]] bool enabled() const { return sample_every != 0; }
};

/// Deterministic head sampler. Decisions and ids are pure functions of
/// (flow id, seq, seed) — never of thread count, wall clock, or run order —
/// which is what makes trace output byte-identical across --threads values.
class TraceSampler {
 public:
  TraceSampler() = default;
  TraceSampler(std::uint32_t sample_every, std::uint64_t seed)
      : every_(sample_every), seed_(seed) {}
  explicit TraceSampler(const TraceConfig& cfg) : TraceSampler(cfg.sample_every, cfg.seed) {}

  [[nodiscard]] bool enabled() const { return every_ != 0; }

  /// Head decision: is this flow traced?
  [[nodiscard]] bool sampled(std::uint64_t flow_id) const {
    if (every_ == 0) return false;
    if (every_ == 1) return true;
    return mix64(flow_id ^ seed_) % every_ == 0;
  }

  /// Per-packet trace id for a sampled flow. Never zero (zero means
  /// "unsampled" in packet metadata), distinct per (flow, seq) with
  /// overwhelming probability, and stable across reruns.
  [[nodiscard]] std::uint64_t trace_id(std::uint64_t flow_id, std::uint64_t seq) const {
    return mix64(mix64(flow_id ^ seed_) + 0x9e37'79b9'7f4a'7c15ULL * (seq + 1)) | 1ULL;
  }

  /// The same finalizer as sim::mix64 (perfbench hashes through this name).
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) { return mix64(x); }

 private:
  std::uint32_t every_ = 0;
  std::uint64_t seed_ = 0;
};

/// Transparent string hash for the name indexes (span components here,
/// metric names in metrics.hpp): with std::equal_to<> as the key equality,
/// a std::string-keyed unordered_map finds a std::string_view directly.
struct NameHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

class SpanBuffer;

/// Recording handle bound to one (buffer, component). Copyable and
/// default-constructible; a detached or disabled recorder drops spans in
/// two compares, and a zero trace id short-circuits before either.
class SpanRecorder {
 public:
  SpanRecorder() = default;

  /// Records [begin, end] for `trace_id`. No-op when trace_id == 0 (the
  /// packet is unsampled) or the buffer is detached/disabled.
  void span(SpanKind kind, std::uint64_t trace_id, Time begin, Time end,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0) const;

  /// Zero-duration span (drop sites, enqueue annotations).
  void instant(SpanKind kind, std::uint64_t trace_id, Time at, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0) const {
    span(kind, trace_id, at, at, a0, a1);
  }

  [[nodiscard]] bool attached() const { return buf_ != nullptr; }

 private:
  friend class SpanBuffer;
  SpanRecorder(SpanBuffer* buf, std::uint32_t component)
      : buf_(buf), component_(component) {}

  SpanBuffer* buf_ = nullptr;
  std::uint32_t component_ = 0;
};

/// Fixed-capacity span ring (flight recorder). Construction is cheap and
/// recorders may be created while the buffer is still disabled (components
/// intern their names at construction; benches enable tracing afterwards).
class SpanBuffer {
 public:
  SpanBuffer() {
    intern("");  // index 0: the anonymous component
  }

  /// Arms the recorder with a preallocated ring of `capacity` spans and
  /// clears any previous recording. capacity == 0 disables.
  void enable(std::size_t capacity) {
    capacity_ = capacity;
    recorded_ = 0;
    ring_.assign(capacity, Span{});
  }

  [[nodiscard]] bool enabled() const { return capacity_ != 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Returns a handle recording under `component`; interns the name
  /// (allocates — call at wiring time, not on the hot path).
  [[nodiscard]] SpanRecorder recorder(std::string_view component) {
    return SpanRecorder{this, intern(component)};
  }

  /// Spans currently held (<= capacity).
  [[nodiscard]] std::size_t size() const {
    return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_) : capacity_;
  }
  /// Total spans ever recorded since enable().
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Spans overwritten by ring wrap (flight-recorder drops).
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ < capacity_ ? 0 : recorded_ - capacity_;
  }

  /// Logical indexing, oldest first.
  [[nodiscard]] const Span& at(std::size_t i) const {
    if (recorded_ <= capacity_) return ring_[i];
    return ring_[static_cast<std::size_t>((recorded_ + i) % capacity_)];
  }

  [[nodiscard]] const std::vector<std::string>& component_names() const {
    return components_;
  }

  /// Drops recorded spans; keeps the ring allocation and interned names.
  void clear() {
    recorded_ = 0;
  }

 private:
  friend class SpanRecorder;

  /// Dense ids in first-use order, looked up through the hashed index.
  std::uint32_t intern(std::string_view name) {
    if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(components_.size());
    components_.emplace_back(name);
    ids_.emplace(components_.back(), id);
    return id;
  }

  void record(std::uint32_t component, SpanKind kind, std::uint64_t trace_id, Time begin,
              Time end, std::uint64_t a0, std::uint64_t a1) {
    Span& s = ring_[static_cast<std::size_t>(recorded_ % capacity_)];
    s.trace_id = trace_id;
    s.begin = begin;
    s.end = end;
    s.component = component;
    s.kind = kind;
    s.a0 = a0;
    s.a1 = a1;
    ++recorded_;
  }

  std::vector<Span> ring_;
  std::uint64_t capacity_ = 0;
  std::uint64_t recorded_ = 0;
  std::vector<std::string> components_;  // id -> name
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>> ids_;
};

inline void SpanRecorder::span(SpanKind kind, std::uint64_t trace_id, Time begin, Time end,
                               std::uint64_t a0, std::uint64_t a1) const {
  if (trace_id == 0 || buf_ == nullptr || !buf_->enabled()) return;
  buf_->record(component_, kind, trace_id, begin, end, a0, a1);
}

// ------------------------------------------------------------- exporters --

/// One Perfetto counter track: a named value sampled over simulated time
/// (e.g. a TM buffer high-water mark polled by TimeSeriesSampler). times
/// and values are parallel arrays; times use the same unit as Span times.
struct CounterSeries {
  std::string track;
  std::vector<Time> times;
  std::vector<double> values;
};

/// Chrome trace-event JSON (load in ui.perfetto.dev or chrome://tracing).
/// One pid ("adcp-fabric"), one tid per (component, kind) track, complete
/// ("X") events in deterministically sorted order, flow arrows ("s"/"t"/
/// "f") chaining each trace id's spans across components. `ts_to_us`
/// converts the Span times to microseconds: 1e-6 for simulated picoseconds
/// (packet spans), 1e-3 for wall-clock nanoseconds (PDES profile spans).
/// Buffers are merged in the order given (pass shards in shard order);
/// output bytes depend only on the recorded spans, not the worker count.
[[nodiscard]] std::string spans_to_perfetto(const std::vector<const SpanBuffer*>& buffers,
                                            double ts_to_us = 1e-6);

/// Same, plus "C" (counter) events — one Perfetto counter track per
/// CounterSeries, rendered alongside the span tracks. With `counters`
/// empty the output is byte-identical to the overload above.
[[nodiscard]] std::string spans_to_perfetto(const std::vector<const SpanBuffer*>& buffers,
                                            const std::vector<CounterSeries>& counters,
                                            double ts_to_us);

/// Writes `text` to `path`; returns false on I/O failure. Shared by the
/// trace exporters and benches.
bool write_text_file(const std::string& path, std::string_view text);

}  // namespace adcp::sim

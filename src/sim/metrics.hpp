// Unified observability layer: hierarchical metric registry, deterministic
// snapshots with a JSON exporter, and simulated-time series sampling.
//
// Every component (switch, TM, pool, host) registers its counters under a
// dotted prefix ("rmt0.tm.drops.admission") via a Scope handle and keeps
// direct Counter&/Gauge&/Histogram& references, so the hot path is exactly
// the same `value_ += n` it was with ad-hoc stats structs — registration
// allocates, increments never do. Snapshots list metrics in sorted-name
// order, making exports byte-stable for a fixed run; the TimeSeriesSampler
// polls selected metrics on a simulated-time cadence via Simulator::every(),
// scheduling nothing unless started so determinism pins are untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/stats.hpp"

namespace adcp::sim {

/// kWatermark is a gauge whose cross-shard merge takes the max instead of
/// the sum — the right fold for peak-occupancy style measurements (e.g. TM
/// buffer high-water marks), where each shard observed the same physical
/// quantity at different moments rather than disjoint contributions.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kSummary, kHistogram, kWatermark };

class MetricRegistry;

/// A named slice of a registry. Components take one by value, register
/// their metrics under `prefix()` at construction, and hold the returned
/// references for the lifetime of the registry. Copyable; an empty Scope
/// (`Scope{}`) is detached and tells the component to fall back to a
/// private registry.
class Scope {
 public:
  Scope() = default;
  Scope(MetricRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  [[nodiscard]] bool attached() const { return registry_ != nullptr; }
  [[nodiscard]] MetricRegistry* registry() const { return registry_; }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

  /// Child scope: scope("tm") under prefix "rmt0" names "rmt0.tm".
  [[nodiscard]] Scope scope(std::string_view name) const;

  // Registration; each resolves or creates the metric under
  // "<prefix>.<name>" and returns a stable reference. Must not be called
  // on a detached Scope.
  [[nodiscard]] Counter& counter(std::string_view name) const;
  [[nodiscard]] Gauge& gauge(std::string_view name) const;
  [[nodiscard]] Summary& summary(std::string_view name) const;
  [[nodiscard]] Histogram& histogram(std::string_view name) const;
  /// Gauge payload with max-merge snapshot semantics (MetricKind::kWatermark).
  [[nodiscard]] Gauge& watermark(std::string_view name) const;

  /// Span recorder bound to the registry's SpanBuffer under this scope's
  /// prefix (see span.hpp). Detached scope -> detached (no-op) recorder.
  /// Safe to call before the buffer is enabled: components intern their
  /// names at construction, benches arm the flight recorder afterwards.
  [[nodiscard]] SpanRecorder span_recorder() const;

 private:
  [[nodiscard]] std::string full(std::string_view name) const;

  MetricRegistry* registry_ = nullptr;
  std::string prefix_;
};

/// One registered metric: its kind and the payload that kind holds
/// (kWatermark holds a Gauge). The registry keeps each metric in its own
/// map node, so references handed to components stay valid as it grows.
struct Metric {
  MetricKind kind = MetricKind::kCounter;
  std::variant<Counter, Gauge, Summary, Histogram> payload;
};

/// Point-in-time view of a registry, with deterministic (sorted-name)
/// iteration and a JSON exporter. Histogram/Summary metrics flatten to
/// a fixed set of sub-fields so the export schema is self-describing.
class Snapshot {
 public:
  struct Entry {
    std::string name;
    MetricKind kind;
    double value = 0.0;          // counter/gauge value; histogram/summary mean
    std::uint64_t count = 0;     // sample count (counter: the count itself)
    double min = 0.0, max = 0.0; // summary only
    double p50 = 0.0, p99 = 0.0; // histogram only
    // Raw histogram samples, retained so merge() can recompute exact
    // quantiles instead of averaging percentiles. Not exported.
    std::vector<double> hist_samples;
  };

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const Entry* find(std::string_view name) const;
  [[nodiscard]] double value(std::string_view name, double fallback = 0.0) const;

  /// {"schema":"adcp-metrics-v1","bench":"<label>","metrics":{...}} —
  /// sorted keys, %.17g doubles (round-trips exactly).
  [[nodiscard]] std::string to_json(std::string_view bench_label = {}) const;
  bool write_json(const std::string& path, std::string_view bench_label = {}) const;

  /// Deterministic name-sorted union-merge of another snapshot into this
  /// one, used to combine per-shard registries after a parallel run (and by
  /// the sequential exporter path to fold multiple registries into one
  /// report). An entry present on only one side is copied verbatim (byte-
  /// stable); when both sides carry the name the kinds must agree and:
  ///   - counters sum exactly (uint64 arithmetic),
  ///   - gauges add,
  ///   - watermarks take the max (each side saw a peak of the same quantity),
  ///   - summaries combine count-weighted (mean/min/max/count),
  ///   - histograms concatenate their retained samples via Histogram::merge
  ///     and recompute mean/p50/p99 from the merged sample set, so the
  ///     quantiles are exact, not percentile averages.
  void merge(const Snapshot& other);

 private:
  friend class MetricRegistry;
  std::vector<Entry> entries_;  // sorted by name
};

/// The registry proper. Owns every metric plus the span flight recorder.
/// Name lookup is hashed; order is a property of the export, which
/// snapshot() sorts by name. Re-registering an existing (name, kind)
/// returns the same object, which lets components that rebuild sub-parts
/// (e.g. AdcpSwitch's TMs on load_program) re-bind without double-counting.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Scope scope(std::string_view prefix) { return Scope{this, std::string(prefix)}; }

  Counter& counter(std::string_view name) {
    return resolve<Counter>(std::string(name), MetricKind::kCounter);
  }
  Gauge& gauge(std::string_view name) {
    return resolve<Gauge>(std::string(name), MetricKind::kGauge);
  }
  Gauge& watermark(std::string_view name) {
    return resolve<Gauge>(std::string(name), MetricKind::kWatermark);
  }
  Summary& summary(std::string_view name) {
    return resolve<Summary>(std::string(name), MetricKind::kSummary);
  }
  Histogram& histogram(std::string_view name) {
    return resolve<Histogram>(std::string(name), MetricKind::kHistogram);
  }

  [[nodiscard]] bool contains(std::string_view name) const { return metrics_.contains(name); }
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

  /// The registry's span flight recorder (disabled until
  /// spans().enable(capacity); see span.hpp).
  [[nodiscard]] SpanBuffer& spans() { return spans_; }
  [[nodiscard]] const SpanBuffer& spans() const { return spans_; }

  [[nodiscard]] Snapshot snapshot() const;

  void reset();

 private:
  friend class Scope;  // registers the names it builds without a copy

  /// The payload of `name`, resolved or created as `kind`.
  template <typename T>
  T& resolve(std::string name, MetricKind kind) {
    return std::get<T>(slot(std::move(name), kind).payload);
  }
  Metric& slot(std::string name, MetricKind kind);

  std::unordered_map<std::string, Metric, NameHash, std::equal_to<>> metrics_;
  SpanBuffer spans_;
};

/// Polls selected metrics every `period` picoseconds of simulated time into
/// a columnar series (one shared time axis). Construction schedules
/// nothing; `start()` arms one periodic event. Probes let callers sample
/// values with no registry representation (e.g. instantaneous TM depth).
class TimeSeriesSampler {
 public:
  using Probe = double (*)(const void*);

  TimeSeriesSampler(Simulator& sim, Time period) : sim_(&sim), period_(period) {}
  ~TimeSeriesSampler() { stop(); }
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  void add_counter(std::string label, const Counter& c);
  void add_gauge(std::string label, const Gauge& g);
  /// `probe(ctx)` is evaluated at each tick; ctx must outlive the sampler.
  void add_probe(std::string label, Probe probe, const void* ctx);

  void start();
  void stop() {
    tick_.cancel();
    running_ = false;
  }
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] const std::vector<Time>& times() const { return times_; }
  [[nodiscard]] const std::vector<std::string>& labels() const { return labels_; }
  /// Column i corresponds to labels()[i]; each column has times().size() rows.
  [[nodiscard]] const std::vector<std::vector<double>>& columns() const { return columns_; }

  /// One Perfetto counter track per label, each carrying the shared time
  /// axis (the `counters` argument of spans_to_perfetto).
  [[nodiscard]] std::vector<CounterSeries> counter_series() const;

 private:
  void sample();

  struct Source {
    Probe probe;
    const void* ctx;
  };

  Simulator* sim_;
  Time period_;
  bool running_ = false;
  EventHandle tick_;
  std::vector<std::string> labels_;
  std::vector<Source> sources_;
  std::vector<Time> times_;
  std::vector<std::vector<double>> columns_;
};

/// Fallback plumbing for components constructed without an external scope:
/// builds a private registry on first use so the component still measures
/// itself, just into its own namespace. Returns the scope to register under.
[[nodiscard]] Scope resolve_scope(const Scope& requested, std::unique_ptr<MetricRegistry>& own,
                                  std::string_view fallback_prefix);

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind);

}  // namespace adcp::sim

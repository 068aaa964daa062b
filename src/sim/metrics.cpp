#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace adcp::sim {
namespace {

// %.17g round-trips every finite double exactly; snapshots must parse back
// to the numbers the run produced.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kSummary: return "summary";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kWatermark: return "watermark";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Scope --

std::string Scope::full(std::string_view name) const {
  if (prefix_.empty()) return std::string(name);
  std::string out;
  out.reserve(prefix_.size() + 1 + name.size());
  out += prefix_;
  out += '.';
  out += name;
  return out;
}

Scope Scope::scope(std::string_view name) const { return Scope{registry_, full(name)}; }

Counter& Scope::counter(std::string_view name) const {
  return registry_->resolve<Counter>(full(name), MetricKind::kCounter);
}
Gauge& Scope::gauge(std::string_view name) const {
  return registry_->resolve<Gauge>(full(name), MetricKind::kGauge);
}
Gauge& Scope::watermark(std::string_view name) const {
  return registry_->resolve<Gauge>(full(name), MetricKind::kWatermark);
}
Summary& Scope::summary(std::string_view name) const {
  return registry_->resolve<Summary>(full(name), MetricKind::kSummary);
}
Histogram& Scope::histogram(std::string_view name) const {
  return registry_->resolve<Histogram>(full(name), MetricKind::kHistogram);
}

SpanRecorder Scope::span_recorder() const {
  return registry_ != nullptr ? registry_->spans().recorder(prefix_) : SpanRecorder{};
}

Scope resolve_scope(const Scope& requested, std::unique_ptr<MetricRegistry>& own,
                    std::string_view fallback_prefix) {
  if (requested.attached()) return requested;
  if (!own) own = std::make_unique<MetricRegistry>();
  return own->scope(fallback_prefix);
}

// ------------------------------------------------------- MetricRegistry --

Metric& MetricRegistry::slot(std::string name, MetricKind kind) {
  const auto [it, added] = metrics_.try_emplace(std::move(name));
  if (added) {
    Metric& m = it->second;
    m.kind = kind;
    switch (kind) {
      case MetricKind::kCounter: break;
      case MetricKind::kGauge:
      case MetricKind::kWatermark: m.payload.emplace<Gauge>(); break;
      case MetricKind::kSummary: m.payload.emplace<Summary>(); break;
      case MetricKind::kHistogram: m.payload.emplace<Histogram>(); break;
    }
    return m;
  }
  // Re-registration must agree on the kind; a name collision across kinds
  // is a wiring bug worth failing loudly on.
  if (it->second.kind != kind) {
    std::fprintf(stderr, "MetricRegistry: '%s' re-registered as %s but exists as %s\n",
                 it->first.c_str(), std::string(metric_kind_name(kind)).c_str(),
                 std::string(metric_kind_name(it->second.kind)).c_str());
    std::abort();
  }
  return it->second;
}

Snapshot MetricRegistry::snapshot() const {
  Snapshot snap;
  snap.entries_.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = m.kind;
    switch (m.kind) {
      case MetricKind::kCounter:
        e.count = std::get<Counter>(m.payload).value();
        e.value = static_cast<double>(e.count);
        break;
      case MetricKind::kGauge:
      case MetricKind::kWatermark:
        e.value = std::get<Gauge>(m.payload).value();
        e.count = 1;
        break;
      case MetricKind::kSummary: {
        const auto& s = std::get<Summary>(m.payload);
        e.value = s.mean();
        e.count = s.count();
        e.min = s.min();
        e.max = s.max();
        break;
      }
      case MetricKind::kHistogram: {
        const auto& h = std::get<Histogram>(m.payload);
        e.value = h.mean();
        e.count = h.count();
        e.p50 = h.quantile(0.5);
        e.p99 = h.quantile(0.99);
        e.hist_samples = h.samples();
        break;
      }
    }
    snap.entries_.push_back(std::move(e));
  }
  // The hashed index has no order; the export's is by name, sorted once
  // here (find() and merge() rely on it).
  std::sort(snap.entries_.begin(), snap.entries_.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) { return a.name < b.name; });
  return snap;
}

void MetricRegistry::reset() {
  for (auto& [name, m] : metrics_) {
    std::visit([](auto& payload) { payload.reset(); }, m.payload);
  }
  spans_.clear();
}

// ------------------------------------------------------------- Snapshot --

void Snapshot::merge(const Snapshot& other) {
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  std::size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    const bool take_left = j >= other.entries_.size() ||
                           (i < entries_.size() && entries_[i].name < other.entries_[j].name);
    const bool take_right = i >= entries_.size() ||
                            (j < other.entries_.size() && other.entries_[j].name < entries_[i].name);
    if (take_left) {
      merged.push_back(std::move(entries_[i++]));
      continue;
    }
    if (take_right) {
      merged.push_back(other.entries_[j++]);
      continue;
    }
    // Same name on both sides: combine.
    Entry e = std::move(entries_[i++]);
    const Entry& o = other.entries_[j++];
    if (e.kind != o.kind) {
      std::fprintf(stderr, "Snapshot::merge: '%s' is %s on one side, %s on the other\n",
                   e.name.c_str(), std::string(metric_kind_name(e.kind)).c_str(),
                   std::string(metric_kind_name(o.kind)).c_str());
      std::abort();
    }
    switch (e.kind) {
      case MetricKind::kCounter:
        e.count += o.count;
        e.value = static_cast<double>(e.count);
        break;
      case MetricKind::kGauge:
        e.value += o.value;
        e.count = 1;
        break;
      case MetricKind::kWatermark:
        // Both sides watched the same physical peak; the fabric-wide high
        // water mark is the larger observation, not the sum.
        e.value = std::max(e.value, o.value);
        e.count = 1;
        break;
      case MetricKind::kSummary: {
        const std::uint64_t n = e.count + o.count;
        if (o.count > 0) {
          if (e.count == 0) {
            e.value = o.value;
            e.min = o.min;
            e.max = o.max;
          } else {
            e.value = (e.value * static_cast<double>(e.count) +
                       o.value * static_cast<double>(o.count)) /
                      static_cast<double>(n);
            e.min = std::min(e.min, o.min);
            e.max = std::max(e.max, o.max);
          }
        }
        e.count = n;
        break;
      }
      case MetricKind::kHistogram: {
        if (o.count > 0) {
          Histogram h;
          h.reserve(e.hist_samples.size() + o.hist_samples.size());
          for (const double s : e.hist_samples) h.record(s);
          Histogram tail;
          for (const double s : o.hist_samples) tail.record(s);
          h.merge(tail);
          e.value = h.mean();
          e.count = h.count();
          e.p50 = h.quantile(0.5);
          e.p99 = h.quantile(0.99);
          e.hist_samples = h.samples();
        }
        break;
      }
    }
    merged.push_back(std::move(e));
  }
  entries_ = std::move(merged);
}

const Snapshot::Entry* Snapshot::find(std::string_view name) const {
  // entries_ is sorted by name; binary search keeps lookups cheap for the
  // parse-back tests and bench assertions.
  std::size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (entries_[mid].name < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < entries_.size() && entries_[lo].name == name) return &entries_[lo];
  return nullptr;
}

double Snapshot::value(std::string_view name, double fallback) const {
  const Entry* e = find(name);
  return e != nullptr ? e->value : fallback;
}

std::string Snapshot::to_json(std::string_view bench_label) const {
  std::string out;
  out.reserve(128 + entries_.size() * 96);
  out += "{\"schema\":\"adcp-metrics-v1\"";
  if (!bench_label.empty()) {
    out += ",\"bench\":\"";
    out += json_escape(bench_label);
    out += '"';
  }
  out += ",\"metrics\":{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(e.name);
    out += "\":{\"kind\":\"";
    out += metric_kind_name(e.kind);
    out += "\",\"value\":";
    out += fmt_double(e.value);
    out += ",\"count\":";
    out += std::to_string(e.count);
    if (e.kind == MetricKind::kSummary) {
      out += ",\"min\":";
      out += fmt_double(e.min);
      out += ",\"max\":";
      out += fmt_double(e.max);
    } else if (e.kind == MetricKind::kHistogram) {
      out += ",\"p50\":";
      out += fmt_double(e.p50);
      out += ",\"p99\":";
      out += fmt_double(e.p99);
    }
    out += '}';
  }
  out += "}}";
  out += '\n';
  return out;
}

bool Snapshot::write_json(const std::string& path, std::string_view bench_label) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json(bench_label);
  return static_cast<bool>(f);
}

// ---------------------------------------------------- TimeSeriesSampler --

void TimeSeriesSampler::add_counter(std::string label, const Counter& c) {
  add_probe(std::move(label),
            [](const void* ctx) {
              return static_cast<double>(static_cast<const Counter*>(ctx)->value());
            },
            &c);
}

void TimeSeriesSampler::add_gauge(std::string label, const Gauge& g) {
  add_probe(std::move(label),
            [](const void* ctx) { return static_cast<const Gauge*>(ctx)->value(); }, &g);
}

void TimeSeriesSampler::add_probe(std::string label, Probe probe, const void* ctx) {
  labels_.push_back(std::move(label));
  sources_.push_back(Source{probe, ctx});
  columns_.emplace_back();
}

void TimeSeriesSampler::start() {
  if (running_) return;
  running_ = true;
  tick_ = sim_->every(period_, [this] { sample(); });
}

void TimeSeriesSampler::sample() {
  times_.push_back(sim_->now());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    columns_[i].push_back(sources_[i].probe(sources_[i].ctx));
  }
}

std::vector<CounterSeries> TimeSeriesSampler::counter_series() const {
  std::vector<CounterSeries> out;
  out.reserve(labels_.size());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    out.push_back(CounterSeries{labels_[i], times_, columns_[i]});
  }
  return out;
}

}  // namespace adcp::sim

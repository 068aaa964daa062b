#include "sim/span.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace adcp::sim {
namespace {

/// A span plus everything the exporters sort and label by. `order` is the
/// (buffer, logical index) arrival position — the final tie-break, so the
/// sort is a total order and the output bytes are reproducible even for
/// fully identical spans.
struct Collected {
  Span span;
  std::string_view component;
  std::uint64_t order = 0;
};

std::vector<Collected> collect_sorted(const std::vector<const SpanBuffer*>& buffers) {
  std::vector<Collected> out;
  std::size_t total = 0;
  for (const SpanBuffer* b : buffers) {
    if (b != nullptr) total += b->size();
  }
  out.reserve(total);
  std::uint64_t order = 0;
  for (const SpanBuffer* b : buffers) {
    if (b == nullptr) continue;
    for (std::size_t i = 0; i < b->size(); ++i) {
      const Span& s = b->at(i);
      out.push_back(Collected{s, b->component_names()[s.component], order++});
    }
  }
  // Per-buffer streams are already deterministic (same events in the same
  // order for any worker count); the global sort interleaves shards by
  // simulated time with a total tie-break, so the merged order — and the
  // exported bytes — are identical for --threads 1 and --threads N.
  std::sort(out.begin(), out.end(), [](const Collected& a, const Collected& b) {
    if (a.span.begin != b.span.begin) return a.span.begin < b.span.begin;
    if (a.span.end != b.span.end) return a.span.end < b.span.end;
    if (a.component != b.component) return a.component < b.component;
    if (a.span.kind != b.span.kind) return a.span.kind < b.span.kind;
    if (a.span.trace_id != b.span.trace_id) return a.span.trace_id < b.span.trace_id;
    return a.order < b.order;
  });
  return out;
}

std::string fmt_us(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return std::string(buf);
}

std::string track_name(const Collected& c) {
  std::string t(c.component);
  t += '/';
  t += span_kind_name(c.span.kind);
  return t;
}

}  // namespace

std::string_view span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHostTx: return "host.tx";
    case SpanKind::kRx: return "rx";
    case SpanKind::kIngress: return "ingress";
    case SpanKind::kTmEnqueue: return "tm.enqueue";
    case SpanKind::kTmQueue: return "tm.queue";
    case SpanKind::kCentral: return "central";
    case SpanKind::kEgress: return "egress";
    case SpanKind::kTx: return "tx";
    case SpanKind::kRecirc: return "recirc";
    case SpanKind::kTrunk: return "trunk";
    case SpanKind::kHostRx: return "host.rx";
    case SpanKind::kDrop: return "drop";
    case SpanKind::kPdesBusy: return "pdes.busy";
    case SpanKind::kPdesWait: return "pdes.horizon_wait";
  }
  return "unknown";
}

std::string spans_to_perfetto(const std::vector<const SpanBuffer*>& buffers,
                              double ts_to_us) {
  return spans_to_perfetto(buffers, {}, ts_to_us);
}

std::string spans_to_perfetto(const std::vector<const SpanBuffer*>& buffers,
                              const std::vector<CounterSeries>& counters,
                              double ts_to_us) {
  const std::vector<Collected> spans = collect_sorted(buffers);

  // Stable track numbering: sorted unique track names -> tid 1..N, so the
  // same span set always yields the same tids regardless of arrival order.
  std::vector<std::string> tracks;
  tracks.reserve(16);
  for (const Collected& c : spans) tracks.push_back(track_name(c));
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  const auto tid_of = [&tracks](const std::string& t) {
    return static_cast<std::uint32_t>(
        std::lower_bound(tracks.begin(), tracks.end(), t) - tracks.begin() + 1);
  };

  std::string out;
  out.reserve(256 + spans.size() * 160);
  out += "{\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"adcp-fabric\"}}";
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(i + 1);
    out += ",\"args\":{\"name\":\"";
    out += tracks[i];  // track names are dotted identifiers; no escaping needed
    out += "\"}}";
  }

  char idbuf[32];
  for (const Collected& c : spans) {
    const double ts = static_cast<double>(c.span.begin) * ts_to_us;
    const double dur =
        static_cast<double>(c.span.end - c.span.begin) * ts_to_us;
    std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                  static_cast<unsigned long long>(c.span.trace_id));
    out += ",\n{\"name\":\"";
    out += span_kind_name(c.span.kind);
    out += "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
    out += fmt_us(ts);
    out += ",\"dur\":";
    out += fmt_us(dur);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(tid_of(track_name(c)));
    out += ",\"args\":{\"trace_id\":\"";
    out += idbuf;
    out += "\",\"a0\":";
    out += std::to_string(c.span.a0);
    out += ",\"a1\":";
    out += std::to_string(c.span.a1);
    out += "}}";
  }

  // Flow arrows: chain each trace id's spans in merged order. Perfetto
  // binds a flow event to the slice at the same (pid, tid, ts), drawing
  // arrows host.tx -> rx -> ... -> host.rx across trunk hops.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id;  // (trace, position)
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // PDES profile spans reuse trace_id for the shard index; arrows would
    // just chain a shard's own timeline, so only packet spans get them.
    if (spans[i].span.trace_id != 0 && spans[i].span.kind < SpanKind::kPdesBusy) {
      by_id.emplace_back(spans[i].span.trace_id, i);
    }
  }
  std::sort(by_id.begin(), by_id.end());  // groups by id, merged order within
  for (std::size_t g = 0; g < by_id.size();) {
    const std::uint64_t id = by_id[g].first;
    std::size_t end = g;
    while (end < by_id.size() && by_id[end].first == id) ++end;
    if (end - g < 2) {
      g = end;
      continue;
    }
    std::snprintf(idbuf, sizeof(idbuf), "0x%llx", static_cast<unsigned long long>(id));
    for (std::size_t i = g; i < end; ++i) {
      const Collected& c = spans[by_id[i].second];
      const char* ph = i == g ? "s" : (i + 1 == end ? "f" : "t");
      out += ",\n{\"name\":\"packet\",\"cat\":\"flow\",\"ph\":\"";
      out += ph;
      out += "\",\"id\":\"";
      out += idbuf;
      out += "\",\"ts\":";
      out += fmt_us(static_cast<double>(c.span.begin) * ts_to_us);
      out += ",\"pid\":1,\"tid\":";
      out += std::to_string(tid_of(track_name(c)));
      if (ph[0] == 'f') out += ",\"bp\":\"e\"";
      out += "}";
    }
    g = end;
  }

  // Counter tracks ("C" events): Perfetto keys the track on (pid, name),
  // so each series just replays its samples in time order. Emitted after
  // the span/flow events; with no series the output bytes are untouched.
  for (const CounterSeries& c : counters) {
    for (std::size_t i = 0; i < c.times.size() && i < c.values.size(); ++i) {
      out += ",\n{\"name\":\"";
      out += c.track;  // track names are dotted identifiers; no escaping needed
      out += "\",\"ph\":\"C\",\"ts\":";
      out += fmt_us(static_cast<double>(c.times[i]) * ts_to_us);
      out += ",\"pid\":1,\"args\":{\"value\":";
      char vbuf[64];
      std::snprintf(vbuf, sizeof(vbuf), "%.17g", c.values[i]);
      out += vbuf;
      out += "}}";
    }
  }

  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::ofstream f(path);
  if (!f) return false;
  f << text;
  return static_cast<bool>(f);
}

}  // namespace adcp::sim

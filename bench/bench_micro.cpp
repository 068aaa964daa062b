// E10 — Micro-benchmarks of the simulator substrates (google-benchmark).
//
// These measure the *simulator's* own hot paths (host-machine ns/op), not
// modeled switch time: parser, deparser, tables, stateful ALU, array
// engine, TM, pipeline advance, the event kernel, and one switch of each
// pipelined model forwarding all-to-all traffic. A benchmark that reports
// an error (SkipWithError) makes the binary exit 1; so does an unwritable
// BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/adcp_switch.hpp"
#include "core/programs.hpp"
#include "mat/array_engine.hpp"
#include "mat/register.hpp"
#include "mat/table.hpp"
#include "net/host.hpp"
#include "packet/deparser.hpp"
#include "packet/headers.hpp"
#include "packet/parser.hpp"
#include "packet/pool.hpp"
#include "pipeline/pipeline.hpp"
#include "rmt/programs.hpp"
#include "rmt/rmt_switch.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tm/traffic_manager.hpp"

namespace {

using namespace adcp;

packet::Packet sample_packet(std::size_t elems) {
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kAggUpdate;
  for (std::size_t i = 0; i < elems; ++i) {
    spec.inc.elements.push_back({static_cast<std::uint32_t>(i), 1});
  }
  return packet::make_inc_packet(spec);
}

void BM_ParserStandard(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Packet pkt = sample_packet(elems);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParserStandard)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_Deparser(benchmark::State& state) {
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  const packet::Packet pkt = sample_packet(16);
  const packet::ParseResult r = parser.parse(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dep.deparse(r.phv, pkt, r.consumed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Deparser);

void BM_ExactTableLookup(benchmark::State& state) {
  mat::ExactTable table(65536);
  for (std::uint64_t k = 0; k < 65536; ++k) table.insert(k, mat::actions::nop());
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key++ & 0xffff));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactTableLookup);

void BM_LpmLookup(benchmark::State& state) {
  mat::LpmTable table(1024);
  for (std::uint32_t i = 0; i < 256; ++i) {
    table.insert(i << 24, 8, mat::actions::nop());
    table.insert((i << 24) | (i << 16), 16, mat::actions::nop());
  }
  std::uint32_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(key));
    key += 0x01010101;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup);

void BM_RegisterAlu(benchmark::State& state) {
  mat::RegisterFile regs(65536);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(regs.apply(mat::AluOp::kAdd, i++ & 0xffff, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegisterAlu);

void BM_ArrayEngineBatch(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  mat::ArrayEngineConfig cfg;
  cfg.lane_width = 16;
  mat::ArrayMatEngine engine(cfg);
  std::vector<std::uint64_t> keys(width), vals(width, 1);
  for (std::uint32_t i = 0; i < width; ++i) keys[i] = i;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.update_batch(mat::AluOp::kAdd, keys, vals, cycles));
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_ArrayEngineBatch)->Arg(1)->Arg(8)->Arg(16);

void BM_PipelineProcess(benchmark::State& state) {
  pipeline::PipelineConfig pc;
  pc.stage_count = 12;
  pipeline::Pipeline pipe(pc);
  // Build every stage, so the loop times the full 12-stage walk rather
  // than the one-cycle charge for stages nothing has named.
  for (std::uint32_t i = 0; i < pipe.depth(); ++i) pipe.stage(i);
  packet::Phv phv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.process(0, phv));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineProcess);

void BM_TmEnqueueDequeue(benchmark::State& state) {
  tm::TmConfig cfg;
  cfg.outputs = 16;
  cfg.buffer_bytes = 1ull << 30;
  tm::TrafficManager tm(cfg);
  const packet::Packet pkt = sample_packet(4);
  std::uint32_t out = 0;
  for (auto _ : state) {
    tm.enqueue(out & 15, 0, pkt);
    benchmark::DoNotOptimize(tm.dequeue(out & 15));
    ++out;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TmEnqueueDequeue);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.at(static_cast<sim::Time>(i), [&count] { ++count; });
    }
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// Steady-state variant: one Simulator reused across batches, the pattern
// every switch scenario actually runs. After the first batch the slab and
// heap are warm, so scheduling performs no heap allocation at all.
void BM_SimulatorSteadyState(benchmark::State& state) {
  sim::Simulator sim;
  int count = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.at(sim.now() + static_cast<sim::Time>(i), [&count] { ++count; });
    }
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorSteadyState);

// Kernel churn: each iteration schedules 1000 events at random offsets, a
// quarter of them through cancelable handles, cancels half of those, and
// runs the batch. Items are events fired.
void BM_EventKernelChurn(benchmark::State& state) {
  sim::Simulator sim;
  sim::Rng rng(0x5eed0000ull);
  std::int64_t fired = 0;
  std::vector<sim::EventHandle> cancelable;
  cancelable.reserve(250);
  for (auto _ : state) {
    cancelable.clear();
    for (int i = 0; i < 1000; ++i) {
      const auto at = sim.now() + 1 + rng.uniform(0, 5000);
      if (i % 4 == 0) {
        cancelable.push_back(sim.at(at, [&fired] { ++fired; }));
      } else {
        sim.at(at, [&fired] { ++fired; });
      }
    }
    for (std::size_t i = 0; i < cancelable.size(); i += 2) cancelable[i].cancel();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_EventKernelChurn);

packet::IncPacketSpec spec_to_host(std::uint32_t dst_host, std::uint32_t flow,
                                   std::uint32_t seq) {
  packet::IncPacketSpec spec;
  spec.ip_dst = 0x0a000000 | dst_host;
  spec.inc.opcode = packet::IncOpcode::kPlain;
  spec.inc.flow_id = flow;
  spec.inc.seq = seq;
  spec.inc.elements.push_back({seq, seq * 2});
  return spec;
}

// One all-to-all round per iteration on an 8-host single-switch fabric:
// every host sends one packet to every other host, then the simulator
// drains. Items are events executed.
void run_all_to_all(benchmark::State& state, sim::Simulator& sim, net::Fabric& fabric) {
  std::int64_t executed = 0;
  std::uint32_t seq = 0;
  for (auto _ : state) {
    for (std::uint32_t s = 0; s < 8; ++s) {
      for (std::uint32_t d = 0; d < 8; ++d) {
        if (s != d) fabric.host(s).send_inc(spec_to_host(d, s * 100 + d, seq));
      }
    }
    executed += static_cast<std::int64_t>(sim.run());
    benchmark::DoNotOptimize(executed);
    ++seq;
  }
  state.SetItemsProcessed(executed);
}

void BM_RmtAllToAll(benchmark::State& state) {
  sim::Simulator sim;
  rmt::RmtConfig cfg;
  cfg.port_count = 8;
  cfg.pipeline_count = 2;
  rmt::RmtSwitch sw(sim, cfg);
  sw.load_program(rmt::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  run_all_to_all(state, sim, fabric);
}
BENCHMARK(BM_RmtAllToAll);

void BM_AdcpAllToAll(benchmark::State& state) {
  sim::Simulator sim;
  core::AdcpConfig cfg;
  cfg.port_count = 8;
  cfg.demux_factor = 2;
  cfg.central_pipeline_count = 2;
  core::AdcpSwitch sw(sim, cfg);
  sw.load_program(core::forward_program(cfg));
  net::Fabric fabric(sim, sw, net::Link{100.0, 100 * sim::kNanosecond});
  run_all_to_all(state, sim, fabric);
}
BENCHMARK(BM_AdcpAllToAll);

// Reuse-API variants of the substrate benches: the switch data paths call
// parse_into/deparse_into with pooled packets, so these measure the hot
// path as deployed (no per-call Buffer/Phv allocations).
void BM_ParserReuse(benchmark::State& state) {
  const auto elems = static_cast<std::size_t>(state.range(0));
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Packet pkt = sample_packet(elems);
  packet::ParseResult res;
  for (auto _ : state) {
    parser.parse_into(pkt, res);
    benchmark::DoNotOptimize(res.accepted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParserReuse)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_DeparserReuse(benchmark::State& state) {
  const packet::ParseGraph g = packet::standard_parse_graph(64);
  const packet::Parser parser(&g);
  const packet::Deparser dep = packet::standard_deparser();
  const packet::Packet pkt = sample_packet(16);
  const packet::ParseResult r = parser.parse(pkt);
  packet::Packet out;
  for (auto _ : state) {
    dep.deparse_into(r.phv, pkt, r.consumed, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeparserReuse);

void BM_TmEnqueueDequeuePooled(benchmark::State& state) {
  tm::TmConfig cfg;
  cfg.outputs = 16;
  cfg.buffer_bytes = 1ull << 30;
  tm::TrafficManager tm(cfg);
  packet::Pool pool;
  tm.set_pool(&pool);
  packet::IncPacketSpec spec;
  spec.inc.opcode = packet::IncOpcode::kAggUpdate;
  for (std::uint32_t i = 0; i < 4; ++i) spec.inc.elements.push_back({i, 1});
  std::uint32_t out = 0;
  for (auto _ : state) {
    packet::Packet pkt = pool.acquire();
    packet::make_inc_packet_into(spec, pkt);
    tm.enqueue(out & 15, 0, std::move(pkt));
    auto got = tm.dequeue(out & 15);
    if (!got) {
      state.SkipWithError("TM dequeue lost the enqueued packet");
      break;
    }
    benchmark::DoNotOptimize(got->size());
    pool.release(std::move(*got));
    ++out;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TmEnqueueDequeuePooled);

/// Console output as usual, plus every run mirrored into a MetricRegistry
/// ("<name>.ns_per_op" / "<name>.items_per_sec") so the micro numbers ship
/// in the same adcp-metrics-v1 schema as every other bench. Remembers
/// whether any run reported an error.
class RegistryReporter final : public benchmark::ConsoleReporter {
 public:
  explicit RegistryReporter(sim::MetricRegistry* registry) : registry_(registry) {}

  [[nodiscard]] bool failed() const { return failed_; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        failed_ = true;
        continue;
      }
      // Benchmark names may carry arg suffixes ("BM_ParserReuse/16");
      // '/' nests them as registry scopes.
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/') c = '.';
      }
      if (run.iterations <= 0) continue;
      // Per-iteration real time in the run's time unit (ns by default).
      registry_->gauge(name + ".ns_per_op").set(run.GetAdjustedRealTime());
      if (run.counters.find("items_per_second") != run.counters.end()) {
        registry_->gauge(name + ".items_per_sec")
            .set(run.counters.at("items_per_second"));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  sim::MetricRegistry* registry_;
  bool failed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sim::MetricRegistry report;
  RegistryReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const bool wrote = bench::write_report(report, "micro");
  return wrote && !reporter.failed() ? 0 : 1;
}

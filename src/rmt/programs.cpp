#include "rmt/programs.hpp"

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mat/action.hpp"
#include "packet/fields.hpp"
#include "packet/headers.hpp"

namespace adcp::rmt {

namespace {

using packet::Phv;
using packet::fields::kIncOpcode;
using packet::fields::kIncSeq;
using packet::fields::kIpDst;
using packet::fields::kMetaDrop;
using packet::fields::kMetaEgressPort;
using packet::fields::kMetaMulticastGroup;
using packet::fields::kMetaRecirc;
using packet::fields::kMetaRecircPass;
using packet::fields::user_field;

constexpr std::uint64_t opcode(packet::IncOpcode op) {
  return static_cast<std::uint64_t>(op);
}

void route_by_ip(Phv& phv, std::uint32_t port_count) {
  const std::uint64_t host = phv.get_or(kIpDst, 0) & 0xff;
  if (host < port_count) {
    phv.set(kMetaEgressPort, host);
  } else {
    phv.set(kMetaDrop, 1);
  }
}

}  // namespace

RmtProgram forward_program(const RmtConfig& config) {
  RmtProgram prog;
  const std::uint32_t ports = config.port_count;
  prog.setup_ingress = [ports](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [ports](Phv& phv, pipeline::Stage&) -> std::uint64_t {
      route_by_ip(phv, ports);
      return 1;
    });
  };
  return prog;
}

RmtProgram group_comm_program(const RmtConfig& config) {
  RmtProgram prog;
  const std::uint32_t ports = config.port_count;
  prog.setup_ingress = [ports](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [ports](Phv& phv, pipeline::Stage&) -> std::uint64_t {
      if (phv.get_or(kIncOpcode, 0) ==
          opcode(packet::IncOpcode::kGroupXfer)) {
        phv.set(kMetaMulticastGroup, phv.get_or(packet::fields::kIncWorkerId, 0));
      } else {
        route_by_ip(phv, ports);
      }
      return 1;
    });
  };
  return prog;
}

packet::ParseGraph scalar_unrolled_parse_graph(std::size_t elems) {
  assert(2 * elems <= packet::fields::kUserFieldCount);
  // Reuse the standard graph's first three states and replace the INC state
  // with a fixed-count scalar unroll.
  packet::ParseGraph g = packet::standard_parse_graph(0);
  // State ids in standard_parse_graph: 0=eth, 1=ip, 2=udp, 3=inc. We build
  // a fresh graph with the same shape but a different INC state.
  packet::ParseGraph out;
  for (packet::StateId id = 0; id < 3; ++id) {
    packet::ParseState st = g.state(id);
    out.add_state(std::move(st));
  }
  packet::ParseState inc = g.state(3);
  inc.name = "inc-unrolled-" + std::to_string(elems);
  inc.header_len = packet::kIncFixedBytes + elems * packet::kIncElementBytes;
  for (std::size_t i = 0; i < elems; ++i) {
    const std::size_t at = packet::kIncFixedBytes + i * packet::kIncElementBytes;
    inc.extracts.push_back({at, 4, user_field(2 * i)});
    inc.extracts.push_back({at + 4, 4, user_field(2 * i + 1)});
  }
  out.add_state(std::move(inc));
  out.set_start(0);
  return out;
}

packet::Deparser scalar_unrolled_deparser(std::size_t elems) {
  using packet::EmitScalar;
  std::vector<packet::EmitOp> ops = packet::inc_header_emits();
  for (std::size_t i = 0; i < elems; ++i) {
    ops.emplace_back(std::in_place_type<EmitScalar>, EmitScalar{user_field(2 * i), 4});
    ops.emplace_back(std::in_place_type<EmitScalar>, EmitScalar{user_field(2 * i + 1), 4});
  }
  return packet::Deparser{std::move(ops)};
}

RmtProgram scalar_aggregation_program(const RmtConfig& config, const RmtAggOptions& opts) {
  assert(opts.report && "RmtAggOptions::report must be provided");
  RmtProgram prog;
  prog.shared_parse = std::make_shared<const packet::ParseGraph>(
      scalar_unrolled_parse_graph(opts.elems_per_packet));
  prog.shared_deparse =
      std::make_shared<const packet::Deparser>(scalar_unrolled_deparser(opts.elems_per_packet));

  const std::uint32_t ports = config.port_count;
  const std::uint32_t agg_pipe = config.pipeline_of_port(opts.agg_port);
  const std::uint32_t k = opts.elems_per_packet;
  auto report = opts.report;

  // Registry mirror of the report (nullptr members when no scope given).
  // Resolved once here so the per-packet body never touches the name table.
  struct AggCounters {
    sim::Counter* packets = nullptr;
    sim::Counter* results = nullptr;
    sim::Counter* misrouted = nullptr;
    sim::Gauge* sram_blocks = nullptr;
    sim::Gauge* tables_installed = nullptr;
  };
  auto counters = std::make_shared<AggCounters>();
  if (opts.metrics.attached()) {
    counters->packets = &opts.metrics.counter("agg.packets");
    counters->results = &opts.metrics.counter("agg.results");
    counters->misrouted = &opts.metrics.counter("agg.drops.misrouted");
    counters->sram_blocks = &opts.metrics.gauge("agg.sram_blocks_used");
    counters->tables_installed = &opts.metrics.gauge("agg.tables_installed");
    counters->tables_installed->set(1.0);
  }

  // The aggregation body shared by the ingress (kSamePipe / kRecirculate)
  // and egress (kEgressLocal) variants. Charges k cycles: RMT's stateful
  // ALUs take one scalar element each per packet pass (§2 issue 2).
  const auto aggregate = [opts, k, report,
                          counters](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
    if (opts.install_mapping_tables) stage.run_maus(phv);  // k replicated lookups

    mat::RegisterFile& regs = stage.registers();
    const std::size_t half = regs.size() / 2;
    std::uint64_t last_sum = 0;
    std::vector<std::uint64_t> sums(k, 0);
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t key = phv.get_or(user_field(2 * i), 0);
      const std::uint64_t value = phv.get_or(user_field(2 * i + 1), 0);
      sums[i] = regs.apply(opts.combine, key % half, value);
      last_sum = sums[i];
    }
    (void)last_sum;
    const std::size_t slot = half + phv.get_or(kIncSeq, 0) % half;
    const std::uint64_t arrived = regs.apply(mat::AluOp::kAdd, slot, 1);
    ++report->aggregated_packets;
    if (counters->packets != nullptr) counters->packets->add();

    if (arrived < opts.workers) {
      phv.set(kMetaDrop, 1);
      return k;
    }
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t key = phv.get_or(user_field(2 * i), 0);
      phv.set(user_field(2 * i + 1), sums[i]);
      regs.apply(mat::AluOp::kWrite, key % half, 0);
    }
    regs.apply(mat::AluOp::kWrite, slot, 0);
    phv.set(kIncOpcode, opcode(packet::IncOpcode::kAggResult));
    ++report->results_emitted;
    if (counters->results != nullptr) counters->results->add();
    if (opts.mode == RmtAggMode::kEgressLocal) {
      // Too late to choose a port: the packet is already queued for one.
      // It leaves through the egress pipe it is in — Fig. 2's restriction.
      return 2 * static_cast<std::uint64_t>(k);
    }
    phv.set(kMetaMulticastGroup, opts.result_group);
    return 2 * static_cast<std::uint64_t>(k);  // combine pass + clear pass
  };

  // Install the replicated mapping tables (one copy per unrolled element)
  // into the aggregation stage of the state-holding pipeline.
  const auto install_tables = [opts, k, report, counters](pipeline::Pipeline& pipe) {
    if (!opts.install_mapping_tables) return;
    pipeline::Stage& stage = pipe.stage(0);
    for (std::uint32_t i = 0; i < k; ++i) {
      mat::ExactTable table(opts.mapping_table_capacity);
      for (std::size_t key = 0; key < opts.mapping_table_capacity; ++key) {
        table.insert(key, mat::actions::nop());
      }
      mat::MatchActionUnit mau("weight-map-copy-" + std::to_string(i), user_field(2 * i),
                               std::move(table));
      if (!stage.add_mau(std::move(mau), opts.mapping_table_blocks)) {
        report->tables_installed = false;
        if (counters->tables_installed != nullptr) counters->tables_installed->set(0.0);
        break;
      }
    }
    report->sram_blocks_used = stage.memory().used_blocks();
    if (counters->sram_blocks != nullptr) {
      counters->sram_blocks->set(static_cast<double>(report->sram_blocks_used));
    }
  };

  switch (opts.mode) {
    case RmtAggMode::kSamePipe:
      prog.setup_ingress = [=](pipeline::Pipeline& pipe, std::uint32_t index) {
        if (index == agg_pipe) install_tables(pipe);
        pipe.set_stage_program(0, [=](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kAggUpdate)) {
            route_by_ip(phv, ports);
            return 1;
          }
          if (index != agg_pipe) {
            // Deployment restructuring failed: a worker is attached to the
            // wrong pipeline and its contribution cannot reach the state.
            ++report->misrouted_drops;
            if (counters->misrouted != nullptr) counters->misrouted->add();
            phv.set(kMetaDrop, 1);
            return 1;
          }
          return aggregate(phv, stage);
        });
      };
      break;

    case RmtAggMode::kRecirculate:
      prog.setup_ingress = [=](pipeline::Pipeline& pipe, std::uint32_t index) {
        if (index == agg_pipe) install_tables(pipe);
        pipe.set_stage_program(0, [=](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kAggUpdate)) {
            route_by_ip(phv, ports);
            return 1;
          }
          if (phv.get_or(kMetaRecircPass, 0) == 0) {
            // First pass: funnel toward the state-holding pipeline via the
            // recirculation path (TM -> egress -> loop back).
            phv.set(kMetaEgressPort, opts.agg_port);
            phv.set(kMetaRecirc, 1);
            return 1;
          }
          return aggregate(phv, stage);
        });
      };
      break;

    case RmtAggMode::kEgressLocal:
      prog.setup_ingress = [=](pipeline::Pipeline& pipe, std::uint32_t) {
        pipe.set_stage_program(0, [=](Phv& phv, pipeline::Stage&) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kAggUpdate)) {
            route_by_ip(phv, ports);
            return 1;
          }
          phv.set(kMetaEgressPort, opts.agg_port);
          return 1;
        });
      };
      prog.setup_egress = [=](pipeline::Pipeline& pipe, std::uint32_t index) {
        if (index != agg_pipe) return;
        install_tables(pipe);
        pipe.set_stage_program(0, [=](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kAggUpdate)) return 1;
          return aggregate(phv, stage);
        });
      };
      break;
  }
  return prog;
}

}  // namespace adcp::rmt

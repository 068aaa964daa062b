#include "core/programs.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "sim/random.hpp"

namespace adcp::core {

namespace {

using packet::Phv;
using packet::fields::kIncElemCount;
using packet::fields::kIncOpcode;
using packet::fields::kIncSeq;
using packet::fields::kIncWorkerId;
using packet::fields::kIpDst;
using packet::fields::kMetaDrop;
using packet::fields::kMetaEgressPort;
using packet::fields::kMetaMulticastGroup;

constexpr std::uint64_t opcode(packet::IncOpcode op) {
  return static_cast<std::uint64_t>(op);
}

/// Default route: low byte of the destination IP names the host == port.
void route_by_ip(Phv& phv, std::uint32_t port_count) {
  const std::uint64_t host = phv.get_or(kIpDst, 0) & 0xff;
  if (host < port_count) {
    phv.set(kMetaEgressPort, host);
  } else {
    phv.set(kMetaDrop, 1);
  }
}

// ---------------------------------------------------------------------
// Per-application central-stage bodies. Each assumes the opcode dispatch
// already happened and returns the pipe cycles consumed. They are shared
// between the dedicated programs below and combined_inc_program.

std::uint64_t run_aggregation(Phv& phv, pipeline::Stage& stage,
                              const AggregationOptions& opts) {
  mat::ArrayMatEngine* engine = stage.array_engine();
  assert(engine != nullptr && "aggregation needs an array-capable central stage");

  auto& keys = phv.array(packet::array_fields::kIncKeys);
  auto& values = phv.array(packet::array_fields::kIncValues);
  std::uint64_t cycles = 0;
  const std::vector<std::uint64_t> sums =
      engine->update_batch(opts.combine, keys, values, cycles);

  // One contribution counter per aggregation slot (the INC seq number).
  mat::RegisterFile& counters = stage.registers();
  const std::size_t slot =
      static_cast<std::size_t>(phv.get_or(kIncSeq, 0)) % counters.size();
  const std::uint64_t arrived = counters.apply(mat::AluOp::kAdd, slot, 1);

  if (arrived < opts.workers) {
    // Consumed: the switch holds the partial aggregate.
    phv.set(kMetaDrop, 1);
    return std::max<std::uint64_t>(1, cycles);
  }

  // Last contributor: its packet carries the result out, and the slot
  // resets for the next round (SwitchML discipline).
  values.assign(sums.begin(), sums.end());
  const std::vector<std::uint64_t> zeros(keys.size(), 0);
  std::uint64_t clear_cycles = 0;
  engine->update_batch(mat::AluOp::kWrite, keys, zeros, clear_cycles);
  counters.apply(mat::AluOp::kWrite, slot, 0);
  phv.set(kIncOpcode, opcode(packet::IncOpcode::kAggResult));
  phv.set(kMetaMulticastGroup, opts.result_group);
  return std::max<std::uint64_t>(1, cycles + clear_cycles);
}

std::uint64_t run_kv(Phv& phv, pipeline::Stage& stage, const KvCacheOptions& opts,
                     std::uint32_t ports) {
  mat::ArrayMatEngine* engine = stage.array_engine();
  if (engine == nullptr) {
    route_by_ip(phv, ports);
    return 1;
  }
  auto& keys = phv.array(packet::array_fields::kIncKeys);
  auto& values = phv.array(packet::array_fields::kIncValues);
  const std::uint64_t requester = phv.get_or(kIncWorkerId, 0);

  if (phv.get_or(kIncOpcode, 0) == opcode(packet::IncOpcode::kWrite)) {
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t cell = keys[i] % engine->registers().size();
      engine->insert(keys[i], cell);
      engine->registers().poke(static_cast<std::size_t>(cell),
                               i < values.size() ? values[i] : 0);
    }
    cycles = engine->cycles_for(keys.size());
    phv.set(kMetaEgressPort, requester % ports);  // write ack
    return std::max<std::uint64_t>(1, cycles);
  }

  // kRead: answer from the cache iff every key hits.
  std::uint64_t cycles = 0;
  const auto cells = engine->match_batch(keys, cycles);
  const bool all_hit =
      std::all_of(cells.begin(), cells.end(), [](const auto& c) { return c.has_value(); });
  if (all_hit) {
    values.resize(keys.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      values[i] = engine->registers().peek(static_cast<std::size_t>(*cells[i]));
    }
    phv.set(kIncOpcode, opcode(packet::IncOpcode::kAggResult));  // reply marker
    phv.set(kMetaEgressPort, requester % ports);
  } else {
    // Miss: count the missing keys for the control plane, then forward to
    // the backing store.
    if (opts.telemetry) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].has_value()) {
          opts.telemetry->record_miss(keys[i]);
          cycles += opts.telemetry->sketch().depth();
        }
      }
    }
    route_by_ip(phv, ports);
  }
  return std::max<std::uint64_t>(1, cycles);
}

std::uint64_t run_shuffle(Phv& phv, pipeline::Stage& stage, const ShuffleOptions& opts,
                          std::uint32_t ports) {
  const auto keys = phv.array(packet::array_fields::kIncKeys);
  if (keys.empty()) {
    phv.set(kMetaDrop, 1);
    return 1;
  }
  // Range partitioning: the first key names the row's partition. The
  // workload packs one partition's rows per packet.
  const std::uint64_t key = std::min<std::uint64_t>(keys.front(), opts.max_key - 1);
  const std::uint64_t owner = key * opts.partition_owners / opts.max_key;
  phv.set(kMetaEgressPort, owner % ports);

  // Charge an array-engine pass when present (the rows are matched against
  // the partition table as a batch).
  if (mat::ArrayMatEngine* engine = stage.array_engine()) {
    return std::max<std::uint64_t>(1, engine->cycles_for(keys.size()));
  }
  return 1;
}

std::uint64_t run_group(Phv& phv) {
  phv.set(kMetaMulticastGroup, phv.get_or(kIncWorkerId, 0));
  return 1;
}

std::uint64_t run_lock(Phv& phv, pipeline::Stage& stage, std::uint32_t ports) {
  const bool acquire =
      phv.get_or(kIncOpcode, 0) == opcode(packet::IncOpcode::kLockAcquire);

  auto& keys = phv.array(packet::array_fields::kIncKeys);
  auto& values = phv.array(packet::array_fields::kIncValues);
  if (keys.empty()) {
    phv.set(kMetaDrop, 1);
    return 1;
  }
  mat::RegisterFile& locks = stage.registers();
  const std::size_t cell = static_cast<std::size_t>(keys.front()) % locks.size();
  // Holder ids are 1-based so 0 means "free".
  const std::uint64_t me = phv.get_or(kIncWorkerId, 0) + 1;

  std::uint64_t ok = 0;
  std::uint64_t holder = 0;
  if (acquire) {
    const std::uint64_t old = locks.apply(mat::AluOp::kCas, cell, me);
    ok = (old == 0 || old == me) ? 1 : 0;
    holder = old == 0 ? me : old;
  } else {
    const std::uint64_t old = locks.apply(mat::AluOp::kRead, cell, 0);
    if (old == me) {
      locks.apply(mat::AluOp::kWrite, cell, 0);
      ok = 1;
      holder = 0;
    } else {
      ok = 0;
      holder = old;
    }
  }

  values.assign(1, ok);
  keys.resize(1);
  phv.set(kIncElemCount, 1);
  phv.set(kIncOpcode, opcode(packet::IncOpcode::kLockReply));
  phv.set(kIncSeq, holder);  // current holder (1-based) rides in seq
  phv.set(kMetaEgressPort, (me - 1) % ports);
  return 1;
}

}  // namespace

AdcpProgram forward_program(const AdcpConfig& config) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  prog.placement = tm::placement::by_flow_hash(config.central_pipeline_count);
  prog.setup_central = [ports](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [ports](Phv& phv, pipeline::Stage&) -> std::uint64_t {
      route_by_ip(phv, ports);
      return 1;
    });
  };
  return prog;
}

AdcpProgram aggregation_program(const AdcpConfig& config, const AggregationOptions& opts) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  prog.placement = opts.place_by_key
                       ? tm::placement::by_key_hash(config.central_pipeline_count)
                       : tm::placement::by_coflow_hash(config.central_pipeline_count);

  prog.setup_central = [ports, opts](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(
        0, [ports, opts](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kAggUpdate)) {
            route_by_ip(phv, ports);
            return 1;
          }
          return run_aggregation(phv, stage, opts);
        });
  };
  return prog;
}

AdcpProgram group_comm_program(const AdcpConfig& config) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  prog.placement = tm::placement::by_coflow_hash(config.central_pipeline_count);
  prog.setup_central = [ports](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [ports](Phv& phv, pipeline::Stage&) -> std::uint64_t {
      if (phv.get_or(kIncOpcode, 0) == opcode(packet::IncOpcode::kGroupXfer)) {
        return run_group(phv);
      }
      route_by_ip(phv, ports);
      return 1;
    });
  };
  return prog;
}

AdcpProgram kv_cache_program(const AdcpConfig& config, const KvCacheOptions& opts) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  // Range placement: a packet's consecutive keys land on the pipe that
  // owns their range, so multi-key reads meet their cached state.
  prog.placement =
      tm::placement::by_key_range(config.central_pipeline_count, opts.key_space);

  prog.setup_central = [ports, opts](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(
        0, [ports, opts](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          const std::uint64_t op = phv.get_or(kIncOpcode, 0);
          if (op != opcode(packet::IncOpcode::kRead) &&
              op != opcode(packet::IncOpcode::kWrite)) {
            route_by_ip(phv, ports);
            return 1;
          }
          return run_kv(phv, stage, opts, ports);
        });
  };
  return prog;
}

AdcpProgram lock_service_program(const AdcpConfig& config) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  // All operations on one lock must meet the same register cell: place by
  // the lock id (the first element key).
  prog.placement = tm::placement::by_key_hash(config.central_pipeline_count);

  prog.setup_central = [ports](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(0, [ports](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
      const std::uint64_t op = phv.get_or(kIncOpcode, 0);
      if (op != opcode(packet::IncOpcode::kLockAcquire) &&
          op != opcode(packet::IncOpcode::kLockRelease)) {
        route_by_ip(phv, ports);
        return 1;
      }
      return run_lock(phv, stage, ports);
    });
  };
  return prog;
}

AdcpProgram shuffle_program(const AdcpConfig& config, const ShuffleOptions& opts) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  prog.placement =
      tm::placement::by_key_range(config.central_pipeline_count, opts.max_key);

  prog.setup_central = [ports, opts](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(
        0, [ports, opts](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kShuffle)) {
            route_by_ip(phv, ports);
            return 1;
          }
          return run_shuffle(phv, stage, opts, ports);
        });
  };
  return prog;
}

AdcpProgram sequencer_program(const AdcpConfig& config, const SequencerOptions& opts) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  // Total order requires ONE counter: pin every proposal to central pipe 0.
  prog.placement = [](const packet::Packet& pkt) {
    packet::IncHeader inc;
    if (packet::decode_inc(pkt, inc) && inc.opcode == packet::IncOpcode::kPropose) {
      return 0u;
    }
    return static_cast<std::uint32_t>(sim::mix64(pkt.meta.flow_id));
  };

  prog.setup_central = [ports, opts](pipeline::Pipeline& pipe, std::uint32_t index) {
    pipe.set_stage_program(
        0, [ports, opts, index](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          if (phv.get_or(kIncOpcode, 0) != opcode(packet::IncOpcode::kPropose)) {
            route_by_ip(phv, ports);
            return 1;
          }
          if (index != 0) {
            // A proposal that escaped the sequencing pipe must not receive
            // an order number from a different counter.
            phv.set(kMetaDrop, 1);
            return 1;
          }
          // Cell 0 of pipe 0's register file is THE sequencer.
          const std::uint64_t order = stage.registers().apply(mat::AluOp::kAdd, 0, 1);
          phv.set(kIncSeq, order);
          phv.set(kIncOpcode, opcode(packet::IncOpcode::kOrdered));
          phv.set(kMetaMulticastGroup, opts.replica_group);
          return 1;
        });
  };
  return prog;
}

AdcpProgram combined_inc_program(const AdcpConfig& config, const CombinedOptions& opts) {
  AdcpProgram prog;
  const std::uint32_t ports = config.port_count;
  const std::uint32_t pipes = config.central_pipeline_count;

  // Placement dispatches on the opcode so each application keeps the state
  // partitioning its dedicated program would have used.
  const std::uint64_t kv_space = opts.kv.key_space;
  const std::uint64_t shuffle_space = opts.shuffle.max_key;
  prog.placement = [pipes, kv_space, shuffle_space](const packet::Packet& pkt) {
    packet::IncHeader inc;
    if (!packet::decode_inc(pkt, inc)) {
      return static_cast<std::uint32_t>(sim::mix64(pkt.meta.flow_id) % pipes);
    }
    const std::uint64_t key = inc.elements.empty() ? 0 : inc.elements.front().key;
    switch (inc.opcode) {
      case packet::IncOpcode::kAggUpdate:
        return static_cast<std::uint32_t>(sim::mix64(key) % pipes);
      case packet::IncOpcode::kShuffle:
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(key, shuffle_space - 1) * pipes / shuffle_space);
      case packet::IncOpcode::kRead:
      case packet::IncOpcode::kWrite:
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(key, kv_space - 1) * pipes / kv_space);
      case packet::IncOpcode::kLockAcquire:
      case packet::IncOpcode::kLockRelease:
        return static_cast<std::uint32_t>(sim::mix64(key) % pipes);
      case packet::IncOpcode::kGroupXfer:
        return static_cast<std::uint32_t>(sim::mix64(inc.coflow_id) % pipes);
      default:
        return static_cast<std::uint32_t>(sim::mix64(pkt.meta.flow_id) % pipes);
    }
  };

  prog.setup_central = [ports, opts](pipeline::Pipeline& pipe, std::uint32_t) {
    pipe.set_stage_program(
        0, [ports, opts](Phv& phv, pipeline::Stage& stage) -> std::uint64_t {
          switch (static_cast<packet::IncOpcode>(phv.get_or(kIncOpcode, 0))) {
            case packet::IncOpcode::kAggUpdate:
              return run_aggregation(phv, stage, opts.aggregation);
            case packet::IncOpcode::kShuffle:
              return run_shuffle(phv, stage, opts.shuffle, ports);
            case packet::IncOpcode::kRead:
            case packet::IncOpcode::kWrite:
              return run_kv(phv, stage, opts.kv, ports);
            case packet::IncOpcode::kLockAcquire:
            case packet::IncOpcode::kLockRelease:
              return run_lock(phv, stage, ports);
            case packet::IncOpcode::kGroupXfer:
              return run_group(phv);
            default:
              route_by_ip(phv, ports);
              return 1;
          }
        });
  };
  return prog;
}

}  // namespace adcp::core

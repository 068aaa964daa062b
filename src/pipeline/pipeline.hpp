// A clocked sequence of stages.
//
// Timing model: a synchronous pipeline admits one PHV per cycle unless some
// stage stalls (service > 1 cycle), in which case the inter-departure time
// is the *maximum* stage service and the latency is the *sum* of stage
// services — the standard pipeline occupancy model. The clock frequency is
// per-pipeline, which is the crux of the paper: RMT must raise it with port
// speed (Table 2), ADCP lowers it by demultiplexing (Table 3).
//
// Stages are first-touch (DESIGN.md §11): a pipeline declares all its
// stages, and charges their state to mat::StateAccounting, when it is
// built, but builds a Stage only when something names it. A stage nothing
// has named holds no MAU and runs the default program, so it takes one
// cycle and leaves the PHV alone; process() charges that cycle without
// building the stage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/stage.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace adcp::pipeline {

/// Static shape of a pipeline.
struct PipelineConfig {
  std::uint32_t stage_count = 12;
  double clock_ghz = 1.25;
  StageConfig stage;
};

/// Result of pushing one PHV through a pipeline.
struct Transit {
  sim::Time enter = 0;  ///< when the pipeline accepted the PHV
  sim::Time exit = 0;   ///< when the PHV leaves the last stage
  std::uint64_t cycles = 0;  ///< total latency in pipe cycles
  std::uint64_t stall_cycles = 0;  ///< cycles beyond 1 across all stages
  std::uint64_t max_service = 1;   ///< widest stage service (admission gap)
};

/// A pipeline instance with its occupancy state.
class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  /// Installs a program on stage `index` (replacing the default; an empty
  /// program restores it), building the stage on first touch.
  void set_stage_program(std::uint32_t index, StageProgram program);

  /// Installs the same program on every stage, building them all.
  void set_program_all(const StageProgram& program);

  /// Runs `phv` through all stages starting no earlier than `now`,
  /// respecting the pipeline's admission capacity (1 PHV per max-service
  /// cycles). Mutates the PHV and returns the transit timing.
  Transit process(sim::Time now, packet::Phv& phv);

  /// Replays a previously measured transit (datapath fast path): charges
  /// the same occupancy/latency bookkeeping as process() without running
  /// any stage program. The caller vouches that the skipped programs would
  /// have produced exactly this timing.
  Transit advance(sim::Time now, std::uint64_t latency_cycles,
                  std::uint64_t max_service, std::uint64_t stall_cycles);

  [[nodiscard]] const PipelineConfig& config() const { return config_; }
  [[nodiscard]] sim::Time period() const { return period_; }
  [[nodiscard]] double clock_ghz() const { return config_.clock_ghz; }
  /// Declared stages, built or not.
  [[nodiscard]] std::uint32_t depth() const { return config_.stage_count; }

  /// Stage `index`, built on first touch; throws std::out_of_range past
  /// depth().
  Stage& stage(std::uint32_t index) { return touch(index).stage; }

  /// Process-wide stage census, cumulative and monotone like
  /// mat::StateAccounting and, for the same reason, relaxed atomics (a
  /// PDES worker can name a stage mid-run): stages declared by every
  /// pipeline built so far, and stages built on first touch. Callers that
  /// want the count of one build take a before/after delta.
  [[nodiscard]] static std::uint64_t stages_declared_total() {
    return stages_declared_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t stages_materialized_total() {
    return stages_materialized_.load(std::memory_order_relaxed);
  }

  /// PHVs processed so far.
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  /// Sum of all stall cycles charged.
  [[nodiscard]] std::uint64_t total_stalls() const { return total_stalls_; }
  /// Time the admission slot was busy (for utilization reporting).
  [[nodiscard]] sim::Time busy_time() const { return busy_; }
  /// Earliest time the pipeline can accept the next PHV.
  [[nodiscard]] sim::Time next_free() const { return next_free_; }

 private:
  /// A built stage and its program.
  struct BuiltStage {
    BuiltStage(std::uint32_t index, const StageConfig& config) : stage(index, config) {}
    Stage stage;
    StageProgram program;  // empty: the default program
  };

  /// Built stage `index`, building it first if nothing has named it yet.
  BuiltStage& touch(std::uint32_t index);

  PipelineConfig config_;
  sim::Time period_;
  std::vector<std::unique_ptr<BuiltStage>> built_;  // ascending stage index
  sim::Time next_free_ = 0;
  sim::Time busy_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t total_stalls_ = 0;

  static inline std::atomic<std::uint64_t> stages_declared_{0};
  static inline std::atomic<std::uint64_t> stages_materialized_{0};
};

}  // namespace adcp::pipeline

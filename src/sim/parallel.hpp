// Conservative parallel discrete-event driver: lookahead-aware shards.
//
// A ParallelSimulator owns N independent sequential Simulators (the topo
// layer decides the cut: one shard per switch, hosts on their own shards)
// and advances each one through a private sequence of rounds — there is no
// global barrier and no coordinator thread. Synchronization is
// neighbor-to-neighbor, in the null-message tradition (Chandy–Misra–Bryant):
//
//   * Every cross-shard channel (Mailbox) declares a minimum latency: a
//     message pushed at producer-time t arrives no earlier than t + L.
//   * After its round r a shard publishes a guarantee G(r) — a lower bound
//     on the time of anything it may still send — computed as
//     min(next local event, earliest pending arrival, this round's horizon).
//   * A shard's round-r horizon is min over in-channels of
//     (producer guarantee at round r-1 + channel latency). The shard drains
//     its in-mailboxes consumer-side in one batch, injects every arrival
//     below the horizon in (time, mailbox, fifo) order, and runs
//     Simulator::run_window(horizon). Guarantees are monotone, so horizons
//     advance by at least the minimum cycle latency per round and jump
//     across traffic lulls as soon as the neighbors' next-event bounds
//     propagate (the iterated form of a distance-matrix lookahead).
//
// Round pacing is the only cross-thread coupling: shard j enters round r
// once every in-neighbor has published round r-1 (acquire) and every
// out-neighbor has reached round r - kMaxSkew (bounding the guarantee
// history ring). The minimum-round shard can always advance, so the
// protocol is deadlock-free; quiescence is detected with a four-counter
// scan over live sent/received totals plus per-shard idle flags.
//
// Determinism contract: a shard's horizon sequence is a pure function of
// the topology and the (deterministic) per-shard event timelines — never of
// the worker count or thread timing — so the injected-arrival order and
// every tie-break seen by the sequential kernels is identical for any
// --threads value, and results are bit-stable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/span.hpp"
#include "sim/time.hpp"

namespace adcp::sim {

/// One cross-shard channel (one direction of one trunk or host link).
/// Single producer — the source shard's owner — and single consumer — the
/// destination shard's owner, which drains in batches at round starts. The
/// fixed-capacity ring is lock-free (acquire/release on the tail); bursts
/// beyond the ring spill to a mutex-guarded overflow vector. FIFO order is
/// preserved across the ring/overflow boundary: once one envelope
/// overflows, later pushes stay in the overflow until the consumer clears
/// it, so a batch never interleaves the two out of push order.
class Mailbox {
 public:
  struct Envelope {
    Time at = 0;
    Simulator::Callback fn;
  };

  Mailbox(std::size_t src_shard, std::size_t dst_shard, Time latency,
          std::size_t capacity = 256);

  /// Producer side: enqueue `fn` to run at absolute time `at` in the
  /// destination shard. `at` must be >= the producer's current time plus
  /// this mailbox's declared latency (the conservative guarantee).
  template <typename F>
  void push(Time at, F&& fn) {
    pushed_.fetch_add(1, std::memory_order_seq_cst);
    if (overflow_size_.load(std::memory_order_relaxed) == 0) {
      const std::size_t tail = tail_.load(std::memory_order_relaxed);
      if (tail - head_.load(std::memory_order_acquire) < ring_.size()) {
        Envelope& e = ring_[tail & mask_];
        e.at = at;
        e.fn = std::forward<F>(fn);
        tail_.store(tail + 1, std::memory_order_release);
        return;
      }
    }
    std::lock_guard<std::mutex> lk(overflow_mu_);
    overflow_.emplace_back();
    overflow_.back().at = at;
    overflow_.back().fn = std::forward<F>(fn);
    overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t src_shard() const { return src_; }
  [[nodiscard]] std::size_t dst_shard() const { return dst_; }
  [[nodiscard]] Time latency() const { return latency_; }
  /// Messages ever pushed (live; producer-incremented).
  [[nodiscard]] std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_seq_cst);
  }
  /// Messages ever drained by the consumer (live).
  [[nodiscard]] std::uint64_t drained() const {
    return drained_.load(std::memory_order_seq_cst);
  }

  /// A drained envelope tagged for deterministic injection order.
  struct Arrival {
    Time at = 0;
    std::uint64_t seq = 0;      ///< cumulative FIFO position within the mailbox
    std::uint32_t mailbox = 0;  ///< creation index: trunk order, a-side first
    Simulator::Callback fn;
  };

 private:
  friend class ParallelSimulator;

  /// Consumer side: moves every visible envelope into `out` tagged with
  /// this mailbox's id and the running FIFO sequence. Returns the batch
  /// size. Only the destination shard's owner may call this.
  std::size_t drain(std::vector<Arrival>& out, std::uint32_t id, std::uint64_t& next_seq);

  /// Earliest `at` among currently queued envelopes (kNoEventTime when
  /// empty). Single-threaded use only (run() start, before workers exist).
  [[nodiscard]] Time earliest_pending();

  /// Consumer-side cheap peek: true when a drain would find nothing. A
  /// false negative only delays the drain by one round (the quiescence
  /// counters keep termination sound regardless).
  [[nodiscard]] bool empty_hint() const {
    return head_.load(std::memory_order_relaxed) ==
               tail_.load(std::memory_order_acquire) &&
           overflow_size_.load(std::memory_order_acquire) == 0;
  }

  std::size_t src_;
  std::size_t dst_;
  Time latency_;
  std::vector<Envelope> ring_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::mutex overflow_mu_;
  std::vector<Envelope> overflow_;
  std::atomic<std::size_t> overflow_size_{0};
};

/// The sharded driver. Build shards and mailboxes first (single-threaded),
/// then run(); construction never starts threads, and `threads == 1` runs
/// the whole round loop on the calling thread with no pool at all.
class ParallelSimulator {
 public:
  /// `threads == 0` means hardware_concurrency; the effective pool size is
  /// additionally capped by the shard count at run() time.
  explicit ParallelSimulator(unsigned threads = 0);
  ~ParallelSimulator() = default;
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  /// Adds one shard and returns its private sequential Simulator. Must not
  /// be called while run() is executing.
  Simulator& add_shard();
  [[nodiscard]] Simulator& shard(std::size_t i) { return shards_[i]->sim; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Registers a cross-shard channel with the given minimum latency (> 0;
  /// zero-latency channels admit no conservative lookahead and are
  /// rejected). The channel's real latency must be >= the value declared
  /// here — it bounds the consumer's safe horizon.
  Mailbox& add_mailbox(std::size_t src, std::size_t dst, Time latency);

  /// Shard -> worker packing weights (one per shard, any positive scale):
  /// run() greedily assigns the heaviest shards first to the least-loaded
  /// worker (LPT). Empty (the default) means uniform. Feed it a static
  /// topology estimate or a previous run's measured shard_busy_ns() — the
  /// packing affects wall-clock only, never results.
  void set_shard_weights(std::vector<double> weights) { weights_ = std::move(weights); }
  /// Measured busy wall-time per shard ("pdes.shard<i>.busy_ns" so far) —
  /// the cost model input for set_shard_weights on a repeat run.
  [[nodiscard]] std::vector<double> shard_busy_ns() const;

  /// Runs every shard to global quiescence (all heaps, pending buffers and
  /// mailboxes empty). Returns the total number of events executed, summed
  /// over shards. The count is identical for every worker count; against a
  /// monolithic Simulator::run() of the same schedule it can differ by a
  /// few idle-wake events (components that coalesce same-tick wakes see a
  /// different — equally valid — tie order), while every observable output
  /// (timestamps, deliveries, metrics) is bit-identical.
  std::uint64_t run();

  /// Timestamp of the last executed event across all shards (max of the
  /// shard clocks). After run() this equals the monolithic final now().
  [[nodiscard]] Time now() const;

  /// Minimum declared mailbox latency — the tightest lookahead any single
  /// channel contributes (horizons advance at least this much per round).
  [[nodiscard]] Time lookahead() const { return lookahead_; }
  /// Highest round any shard reached, summed over runs ("parallel.epochs"
  /// counter; one round is one drain + horizon window, the epoch analog).
  [[nodiscard]] std::uint64_t epochs() const { return epochs_.value(); }

  /// The driver's own observability: parallel.epochs, parallel.messages,
  /// plus the PDES self-profile — per-shard wall-clock accounting
  /// ("pdes.shard<i>.busy_ns" inside drain/inject/run_window,
  /// ".horizon_wait_ns" between bursts of work — time spent waiting for
  /// neighbor guarantees to free the horizon — and ".idle_ns", run wall
  /// time not attributable to the shard at all) and the
  /// "pdes.mailbox.occupancy" histogram (batch size per non-empty drain).
  /// Wall-clock values are inherently nondeterministic, so they are kept in
  /// this private registry — never merged into experiment snapshots — to
  /// keep those bit-identical to the sequential path.
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

  /// Arms the self-profile flight recorder: every round in which a shard
  /// did real work (drained messages or executed events) records one
  /// kPdesBusy span, plus one kPdesWait span covering the gap since the
  /// shard's previous burst (component "pdes.shard<i>", times in wall-clock
  /// ns since run() started; export with spans_to_perfetto(..., 1e-3)).
  /// Off by default. Each shard records into a private buffer (workers
  /// never share rings); read them via profile_span_buffers().
  void enable_profile_spans(std::size_t capacity = 1u << 14);
  [[nodiscard]] std::vector<const SpanBuffer*> profile_span_buffers() const;

 private:
  static constexpr std::size_t kHist = 64;    ///< guarantee history ring
  static constexpr std::size_t kHistMask = kHist - 1;
  static constexpr std::uint64_t kMaxSkew = 32;  ///< max neighbor round lead

  struct InChannel {
    Mailbox* box = nullptr;
    std::uint32_t id = 0;        ///< global mailbox creation index
    std::size_t src = 0;         ///< producer shard
    Time latency = 0;
    std::uint64_t next_seq = 0;  ///< cumulative FIFO seq (consumer-owned)
  };

  struct Shard {
    Simulator sim;
    std::size_t index = 0;
    std::uint64_t executed = 0;

    // Topology (fixed after wiring).
    std::vector<InChannel> in;
    std::vector<Mailbox*> out;
    std::vector<std::size_t> wait_in;   ///< unique producer shards
    std::vector<std::size_t> wait_out;  ///< unique consumer shards

    // Owner-private round state.
    std::uint64_t round = 0;
    std::vector<Mailbox::Arrival> pending;  ///< min-heap: (at, mailbox, seq)
    std::uint64_t drained_total = 0;
    std::uint64_t busy_acc_ns = 0;
    std::uint64_t wait_acc_ns = 0;
    std::uint64_t last_end_ns = 0;  ///< wall ns since run start, last burst end
    Histogram occupancy;            ///< local; merged into metrics_ post-run

    // Published protocol state (single writer: the owner).
    alignas(64) std::atomic<std::uint64_t> round_pub{0};
    std::atomic<bool> idle{true};
    std::array<Time, kHist> guarantee{};  ///< slot r & kHistMask = G(round r)

    // Registry-backed counters (main thread adds accumulated values).
    Counter* busy_ns = nullptr;
    Counter* idle_ns = nullptr;
    Counter* horizon_wait_ns = nullptr;
    SpanBuffer profile_buf;
    SpanRecorder profile;
  };

  struct StepResult {
    bool advanced = false;  ///< the round number moved
    bool worked = false;    ///< events executed or messages drained
  };

  StepResult try_advance(Shard& s, std::uint64_t wall0_ns);
  void worker_loop(const std::vector<std::size_t>& owned, std::uint64_t wall0_ns);
  [[nodiscard]] bool quiescent_scan() const;
  [[nodiscard]] std::vector<std::vector<std::size_t>> pack_shards(unsigned workers) const;

  unsigned threads_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Time lookahead_ = Simulator::kNoEventTime;
  std::uint64_t executed_ = 0;
  std::vector<double> weights_;
  std::atomic<bool> done_{false};
  bool profile_enabled_ = false;
  std::size_t profile_capacity_ = 1u << 14;

  MetricRegistry metrics_;
  Counter& epochs_ = metrics_.counter("parallel.epochs");
  Counter& messages_ = metrics_.counter("parallel.messages");
  Histogram& mailbox_occ_ = metrics_.histogram("pdes.mailbox.occupancy");

  static constexpr Time kNoEventTime = Simulator::kNoEventTime;
};

}  // namespace adcp::sim

// PRECISION-style heavy-hitter sketch (PAPERS.md: "Efficient Measurement
// on Programmable Switches Using Probabilistic Recirculation").
//
// A d-way table of (key, count) entries. A packet whose key owns an entry
// increments it in one pass. A non-owner probes its d candidate slots and
// claims the minimum-count one with probability 1/(min+1) — the paper's
// probabilistic recirculation: on RMT the claim needs a second pipeline
// pass (the ingress stage cannot read-modify-write another flow's entry in
// the same pass), so the program requests a recirculation and performs the
// claim on the recirculated pass; ADCP's array engine and the RTC shared
// memory claim in a single pass. The claim lottery is a pure function of
// (key, seq, seed) — splitmix64, no RNG state — so every worker count
// makes identical decisions.
//
// Instances are per-switch and shard-local: stage programs of one switch
// share the object, which is exactly the sharing the simulated hardware
// has (one unified stage memory).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/random.hpp"  // mix64

namespace adcp::telem {

struct SketchConfig {
  std::uint32_t ways = 2;    ///< candidate slots probed per key
  std::uint32_t slots = 8;   ///< slots per way (capacity = ways * slots)
  std::uint64_t seed = 0x7e1e'ca57'0b5e'0001ULL;
};

class HeavyHitterSketch {
 public:
  explicit HeavyHitterSketch(SketchConfig config);

  struct Probe {
    bool owner = false;         ///< key already holds an entry
    std::uint32_t way = 0;      ///< owning slot, or the min-count candidate
    std::uint32_t slot = 0;
    std::uint64_t min_count = 0;
  };

  [[nodiscard]] Probe probe(std::uint64_t key) const;

  /// Owner hit: bump the entry.
  void increment(std::uint64_t key);

  /// The PRECISION claim lottery for a non-owner packet (key, seq).
  [[nodiscard]] bool should_claim(std::uint64_t key, std::uint64_t seq) const {
    const Probe p = probe(key);
    if (p.owner) return false;
    return sim::mix64(key ^ (seq << 20) ^ config_.seed) % (p.min_count + 1) == 0;
  }

  /// Takes over the min-count candidate slot: entry becomes (key, min+1).
  void claim(std::uint64_t key);

  /// Single-pass combined op (ADCP / RTC): increment on ownership, else
  /// run the lottery and claim. Returns true when a claim happened.
  bool update(std::uint64_t key, std::uint64_t seq);

  /// (key, count) pairs of live entries, sorted count-desc then key-asc —
  /// a deterministic top-k view for recall/precision scoring.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> entries() const;

  [[nodiscard]] const SketchConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }
  [[nodiscard]] std::uint64_t claims() const { return claims_; }

 private:
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t key, std::uint32_t way) const {
    return static_cast<std::uint32_t>(
        sim::mix64(key ^ (config_.seed + way * 0x9e37'79b9ULL)) % config_.slots);
  }

  SketchConfig config_;
  std::vector<std::uint64_t> keys_;    // ways * slots, row-major by way
  std::vector<std::uint64_t> counts_;  // 0 = empty slot
  std::uint64_t updates_ = 0;
  std::uint64_t claims_ = 0;
};

/// Recall/precision of the sketch's top-k against an exact (key -> count)
/// ground-truth ledger (ties broken by key order on both sides).
struct SketchScore {
  double recall = 0.0;     ///< |sketch top-k ∩ truth top-k| / |truth top-k|
  double precision = 0.0;  ///< |sketch top-k ∩ truth top-k| / |sketch top-k|
};

SketchScore score_heavy_hitters(
    const HeavyHitterSketch& sketch,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& truth, std::size_t k);

}  // namespace adcp::telem
